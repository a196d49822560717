package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.bench.Tables
import repro.core._
import repro.dynamic.{DynamicGraph, DynamicPacking}
import repro.graphdata.GraphGen
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One run of one workload: set up, one untimed warm-up round, then timed
  * rounds of solve -> index build -> update stream until `--seconds` have
  * passed. Every round does the same operations on the same inputs, and
  * every output is checked outside the timed regions.
  *
  * Prints a `REPORT` line (accounting and run facts) and a `RESULT` line
  * (correct / attempted / failed / metrics); run.py turns the latter into
  * the last line of its output.
  */
object Bench {

  /** A planted-community graph G (GraphGen.community) and k. `inserts`
    * edges P and `deletes` edges Q are drawn from G, disjoint; the solve
    * runs on G' = G - P and the stream inserts P and deletes Q.
    */
  final case class Workload(name: String, n: Int, m: Int, community: Int, pIntra: Double,
                            k: Int, inserts: Int, deletes: Int, theorem4: Boolean)

  /** sparse-k3 loads the O(n+m) phases, the heap loop and fromCsr;
    * churn-k6 loads the candidate index and the update stream. sparse-k3's
    * updates are cheap, so its stream is long enough to last seconds.
    */
  val workloads: Seq[Workload] = Seq(
    Workload("sparse-k3", 150000, 1200000, 10, 0.8, k = 3, inserts = 24000, deletes = 36000, theorem4 = true),
    Workload("churn-k6", 63700, 500000, 12, 0.8, k = 6, inserts = 2000, deletes = 3000, theorem4 = false),
  )

  val setupReps = 3
  val warmupSolves = 3
  val minRounds = 3

  final class Inputs(val g: CsrGraph, val gPrime: CsrGraph, val p: Array[Long], val q: Array[Long],
                     val ops: Array[Long], val isInsert: Array[Boolean])

  /** One static solve: what it measured (seconds, MB) and produced. */
  final case class Solve(seconds: Double, allocMb: Double, gcS: Double, result: DisjointResult,
                         stats: Lightweight.Stats, taskS: Double, tau: Long)

  /** One index build: seconds, and MB retained by the graph plus index. */
  final case class Build(seconds: Double, stateMb: Double)

  /** One round: solves (one in a timed round), one index build, then
    * the stream on that build. A round is kept short so that a run holds
    * many of them and each median is taken over many samples.
    */
  final case class Round(traced: Boolean, solves: Seq[Solve], build: Build, indexSize: Long,
                         streamS: Double, latUs: Array[Double], classes: Array[String],
                         swaps: Long, dynSetSize: Int, gcStreamS: Double) {
    def coreS: Double = Stats.median(solves.map(_.seconds)) + build.seconds + streamS
    def updatesPerS: Double = latUs.length / streamS
    def p50Us: Double = Stats.percentile(latUs, 0.50)
    def p99Us: Double = Stats.percentile(latUs, 0.99)
  }

  // ---------------------------------------------------------------- JVM probes

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  /** Bytes allocated so far, per live thread. */
  private def allocated(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  private def allocatedSince(before: Map[Long, Long]): Long =
    allocated().iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum

  private def heapAfterGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Summed Spark task run time, from the listener bus. */
  final class TaskTime extends SparkListener {
    @volatile var runMs = 0L
    @volatile var jobsEnded = 0L
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      if (e.taskMetrics != null) runMs += e.taskMetrics.executorRunTime
    override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded += 1

    /** Task seconds of the jobs that ended since `(jobs, ms)`; the bus
      * delivers a job's task ends before its job end.
      */
    def since(jobs: Long, ms: Long): Double = {
      val deadline = System.nanoTime() + 10000000000L
      while (jobsEnded <= jobs && System.nanoTime() < deadline) Thread.sleep(1)
      (runMs - ms) / 1e3
    }
  }

  // ---------------------------------------------------------------- set-up

  private def inputs(w: Workload, seed: Long, tr: Tracer): Inputs = {
    val graphSeed = seed * 1000003L + w.name.hashCode
    val el = tr("graphgen.community")(GraphGen.community(w.n, w.m, w.community, w.pIntra, graphSeed))
    val g = tr("csr.build")(el.toCsr)
    tr("setup.remove_p") {
      val keys = edgeKeys(g)
      val rnd = new java.util.Random(graphSeed ^ 0x5DEECE66DL)
      // partial Fisher-Yates: the first inserts + deletes slots are P then Q
      val idx = Array.tabulate(keys.length)(identity)
      val drawn = w.inserts + w.deletes
      require(drawn <= keys.length, s"${w.name}: $drawn updates but only ${keys.length} edges")
      for (i <- 0 until drawn) {
        val j = i + rnd.nextInt(keys.length - i)
        val t = idx(i); idx(i) = idx(j); idx(j) = t
      }
      val p = Array.tabulate(w.inserts)(i => keys(idx(i)))
      val q = Array.tabulate(w.deletes)(i => keys(idx(w.inserts + i)))
      val inP = new Array[Boolean](keys.length)
      for (i <- 0 until w.inserts) inP(idx(i)) = true
      val kept = keys.indices.filterNot(inP).map(keys).toArray
      val gPrime = CsrGraph.fromUndirectedEdges(g.n, kept.map(EdgeSet.lo), kept.map(EdgeSet.hi))
      val order = Array.tabulate(drawn)(identity)
      for (i <- drawn - 1 to 1 by -1) {
        val j = rnd.nextInt(i + 1)
        val t = order(i); order(i) = order(j); order(j) = t
      }
      new Inputs(g, gPrime, p, q,
        order.map(i => if (i < w.inserts) p(i) else q(i - w.inserts)),
        order.map(_ < w.inserts))
    }
  }

  private def edgeKeys(g: CsrGraph): Array[Long] = {
    val out = mutable.ArrayBuilder.make[Long]
    for (u <- 0 until g.n) g.foreachNeighbor(u)(v => if (u < v) out += EdgeSet.key(u, v))
    out.result()
  }

  private def startSpark(cores: Int): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  // ---------------------------------------------------------------- main

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val w = workloads.find(_.name == opts("workload"))
      .getOrElse(sys.error(s"unknown workload ${opts("workload")}; known: ${workloads.map(_.name).mkString(", ")}"))
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val tr = new Tracer(trace)
    val off = new Tracer(false)
    val k = w.k

    // -- set-up, several times; the last one's inputs and session are used
    var in: Inputs = null
    var spark: SparkSession = null
    val setupS = for (_ <- 0 until setupReps) yield {
      if (spark != null) spark.stop()
      in = null
      System.gc()
      val t0 = System.nanoTime()
      tr("setup") {
        in = inputs(w, seed, tr)
        spark = tr("spark.start")(startSpark(cores))
      }
      (System.nanoTime() - t0) / 1e9
    }
    val tasks = new TaskTime
    spark.sparkContext.addSparkListener(tasks)

    // the benchmark's own edge sets: G' for the static S, G - Q for the final dynamic S
    val all = new EdgeSet(in.g.n, edgeKeys(in.g))
    val edgesPrime = all.without(in.p)
    val edgesFinal = all.without(in.q)
    lazy val finalCsr = CsrGraph.fromUndirectedEdges(all.n,
      edgesFinal.keys.map(EdgeSet.lo), edgesFinal.keys.map(EdgeSet.hi))

    var solves, builds, updates, checks = 0L
    var failedUpdates, failedChecks = 0L
    val failures = mutable.ArrayBuffer.empty[String]
    def verdict(what: String)(outcome: Option[String]): Unit = {
      checks += 1
      outcome.foreach { why => failedChecks += 1; failures += s"$what: $why" }
    }

    def solve(traced: Boolean): Solve = {
      val t = if (traced) tr else off
      heapAfterGc()
      val gc0 = gcSeconds()
      val a0 = allocated()
      val jobs0 = tasks.jobsEnded
      val ms0 = tasks.runMs
      val t0 = System.nanoTime()
      var stats: Lightweight.Stats = null
      var sn: Array[Long] = null
      val s =
        if (!traced) Tables.lpOn(spark, in.gPrime, k)
        else t("solve") {
          val dag = t("csr.orient_id")(CsrGraph.orient(in.gPrime, Orderings.byId(in.gPrime.n)))
          sn = t("nodescores.compute")(NodeScores.compute(spark, dag, k))
          val (res, st) = t("lightweight.run")(Lightweight.run(in.gPrime, k, sn, PruneMode.Paper))
          stats = st
          res
        }
      val seconds = (System.nanoTime() - t0) / 1e9
      val allocMb = allocatedSince(a0) / 1048576.0
      val gcS = gcSeconds() - gc0
      solves += 1
      verdict("static S")(t("check.static")(Checker.check(edgesPrime, k, s.cliques)))
      if (!traced) Solve(seconds, allocMb, gcS, s, stats, 0.0, 0L)
      else {
        val taskS = tasks.since(jobs0, ms0)
        t("probes") {
          val rank = t("orderings.byscore")(Orderings.byScore(sn))
          val dag = t("csr.orient_score")(CsrGraph.orient(in.gPrime, rank))
          t("cliquesearch.findmin_sweep") {
            val search = new CliqueSearch(dag, k)
            for (u <- 0 until dag.n if dag.degree(u) >= k - 1) search.findMin(u, null, sn, PruneMode.Paper)
          }
          t("validation.validate")(Validation.validate(in.gPrime, s))
        }
        Solve(seconds, allocMb, gcS, s, stats, taskS, NodeScores.totalCliques(sn, k))
      }
    }

    // A fresh Algorithm 5 build depends only on the final graph (always
    // G - Q) and the final S, so its index is kept for the last S seen and
    // rebuilt whenever a stream ends with another S.
    var freshFor: Set[Vector[Int]] = null
    var freshByHost: Map[Vector[Int], Set[Vector[Int]]] = null
    def freshIndex(finalS: Set[Vector[Int]]): Map[Vector[Int], Set[Vector[Int]]] = {
      if (finalS != freshFor) {
        val fresh = new DynamicPacking(DynamicGraph.fromCsr(finalCsr), k)
        fresh.initialize(DisjointResult(k, finalS.toVector.map(_.toArray)))
        freshFor = finalS
        freshByHost = byHost(fresh)
      }
      freshByHost
    }

    def round(traced: Boolean, nSolves: Int = 1): Round = {
      val t = if (traced) tr else off
      t("round") {
        val solved = Seq.fill(nSolves)(solve(traced))
        val s = solved.last.result

        // -- index build on (G', S); the collection after it also gives
        // the stream an empty young generation to start from
        val base = heapAfterGc()
        val t1 = System.nanoTime()
        val dp = t("index_build") {
          val dg = t("dyngraph.from_csr")(DynamicGraph.fromCsr(in.gPrime))
          val dp = new DynamicPacking(dg, k)
          t("dynamic.initialize")(dp.initialize(s))
          dp
        }
        val built = Build((System.nanoTime() - t1) / 1e9, (heapAfterGc() - base) / 1048576.0)
        builds += 1
        val indexSize = dp.indexSize

        // -- update stream: one caller, each update waits for the previous
        val nOps = in.ops.length
        val lat = new Array[Double](nOps)
        val classes = new Array[String](nOps)
        val gc1 = gcSeconds()
        val t2 = System.nanoTime()
        t("stream") {
          var i = 0
          while (i < nOps) {
            val u = EdgeSet.lo(in.ops(i)); val v = EdgeSet.hi(in.ops(i))
            val cu = dp.cliqueOf(u); val cv = dp.cliqueOf(v)
            val before = dp.g.edgeCount
            val cls =
              if (in.isInsert(i)) {
                if (cu == -1 && cv == -1) "dynamic.insert_free_free"
                else if (cu == -1 || cv == -1) "dynamic.insert_free_owned"
                else "dynamic.insert_owned_owned"
              } else if (cu != -1 && cu == cv) "dynamic.delete_split"
              else "dynamic.delete_other"
            val s0 = System.nanoTime()
            if (in.isInsert(i)) dp.insertEdge(u, v) else dp.deleteEdge(u, v)
            val s1 = System.nanoTime()
            t.record(cls, s0, s1)
            lat(i) = (s1 - s0) / 1e3
            classes(i) = cls
            if (dp.g.edgeCount - before != (if (in.isInsert(i)) 1 else -1)) failedUpdates += 1
            i += 1
          }
        }
        val streamS = (System.nanoTime() - t2) / 1e9
        val gcStream = gcSeconds() - gc1
        updates += nOps

        // -- final S against G - Q, and index parity with a fresh build
        val finalS = dp.result
        verdict("dynamic S")(t("check.dynamic")(Checker.check(edgesFinal, k, finalS.cliques)))
        verdict("index parity")(t("check.parity") {
          val expected = freshIndex(canon(finalS))
          if (byHost(dp) == expected) None
          else Some(s"index differs from a fresh build: ${dp.indexSize} vs ${expected.valuesIterator.map(_.size).sum} candidates")
        })

        Round(traced, solved, built, indexSize, streamS, lat, classes, dp.swapCount, dp.size, gcStream)
      }
    }

    // the solve's hot loops are still being compiled after one pass, so
    // the warm-up round solves several times
    val tw = System.nanoTime()
    round(traced = false, nSolves = warmupSolves)
    val warmupS = (System.nanoTime() - tw) / 1e9

    // timed rounds; a traced run alternates traced and untraced rounds so
    // both modes are measured in the same JVM for the tracing overhead
    val rounds = mutable.ArrayBuffer.empty[Round]
    val start = System.nanoTime()
    // a round starts only if at least half of it fits in `--seconds`
    val need = if (trace) 2 * minRounds - 1 else minRounds
    var lastRoundS = 0.0
    while (rounds.size < need || (System.nanoTime() - start) / 1e9 + lastRoundS / 2 < seconds) {
      val r0 = System.nanoTime()
      rounds += round(traced = trace && rounds.size % 2 == 0)
      lastRoundS = (System.nanoTime() - r0) / 1e9
    }

    // Theorem 4: L with Strict pruning selects exactly GC's cliques
    if (w.theorem4) {
      val sn = NodeScores.compute(spark, CsrGraph.orient(in.gPrime, Orderings.byId(in.gPrime.n)), k)
      val strict = Lightweight.run(in.gPrime, k, sn, PruneMode.Strict)._1
      val greedy = CliqueScoreGreedy.run(in.gPrime, k, sn)._1
      verdict("theorem 4")(
        if (canon(strict) == canon(greedy)) None
        else Some(s"L/Strict |S|=${strict.size} differs from GC |S|=${greedy.size}"))
    }

    val plain = rounds.filterNot(_.traced)
    val med = (f: Round => Double) => Stats.median(plain.map(f).toSeq)
    val plainSolves = plain.flatMap(_.solves).toSeq
    val plainBuilds = plain.map(_.build).toSeq
    val last = plain.last
    val endToEnd = Seq(
      ("setup_s", Stats.median(setupS), "s"),
      ("solve_s", Stats.median(plainSolves.map(_.seconds)), "s"),
      ("set_size", last.solves.last.result.size.toDouble, "cliques"),
      ("solve_alloc_mb", Stats.median(plainSolves.map(_.allocMb)), "MB"),
      ("index_build_s", Stats.median(plainBuilds.map(_.seconds)), "s"),
      ("dyn_state_mb", Stats.median(plainBuilds.map(_.stateMb)), "MB"),
      ("updates_per_s", med(_.updatesPerS), "1/s"),
      ("update_p50_us", med(_.p50Us), "us"),
      ("update_p99_us", med(_.p99Us), "us"),
      ("dyn_set_size", last.dynSetSize.toDouble, "cliques"),
    )

    val metrics =
      if (!trace) endToEnd
      else {
        val traced = rounds.filter(_.traced)
        val tmed = (f: Round => Double) => Stats.median(traced.map(f).toSeq)
        val tracedSolves = traced.flatMap(_.solves).toSeq
        val span = (name: String) => Stats.median(tr.seconds(name).toSeq)
        val scratch = Tables.lpOn(spark, finalCsr, k).size
        solves += 1
        val tl = traced.last
        val ts = tl.solves.last
        val nUpd = tl.latUs.length.toDouble
        val computeS = span("nodescores.compute")
        val taskS = Stats.median(tracedSolves.map(_.taskS))
        val classes = Seq("dynamic.delete_split", "dynamic.delete_other", "dynamic.insert_free_free",
          "dynamic.insert_free_owned", "dynamic.insert_owned_owned").flatMap { c =>
          val us = tr.seconds(c).map(_ * 1e6)
          Seq((c, tl.classes.count(_ == c).toDouble, "count"),
            (s"${c}_p50_us", Stats.percentile(us, 0.50), "us"),
            (s"${c}_p99_us", Stats.percentile(us, 0.99), "us"))
        }
        Seq(
          ("graphgen.community_s", span("graphgen.community"), "s"),
          ("csr.build_s", span("csr.build"), "s"),
          ("csr.orient_id_s", span("csr.orient_id"), "s"),
          ("csr.orient_score_s", span("csr.orient_score"), "s"),
          ("nodescores.compute_s", computeS, "s"),
          ("nodescores.task_s", taskS, "s"),
          ("nodescores.parallelism", taskS / computeS, "ratio"),
          ("nodescores.tau", ts.tau.toDouble, "count"),
          ("orderings.byscore_s", span("orderings.byscore"), "s"),
          ("cliquesearch.findmin_sweep_s", span("cliquesearch.findmin_sweep"), "s"),
          ("lightweight.run_s", span("lightweight.run"), "s"),
          ("lightweight.findmin_calls", ts.stats.findMinCalls.toDouble, "count"),
          ("lightweight.heap_pushes", ts.stats.heapPushes.toDouble, "count"),
          ("lightweight.stale_pops", ts.stats.stalePops.toDouble, "count"),
          ("lightweight.useful_pop_ratio", ts.result.size / (ts.result.size + ts.stats.stalePops).toDouble, "ratio"),
          ("validation.validate_s", span("validation.validate"), "s"),
          ("dyngraph.from_csr_s", span("dyngraph.from_csr"), "s"),
          ("dynamic.initialize_s", span("dynamic.initialize"), "s"),
          ("dynamic.index_size", tl.indexSize.toDouble, "count"),
          ("dynamic.swaps", tl.swaps.toDouble, "count"),
          ("dynamic.swaps_per_update", tl.swaps / nUpd, "ratio"),
        ) ++ classes ++ Seq(
          ("dynamic.scratch_gap", (tl.dynSetSize - scratch).toDouble, "cliques"),
          ("jvm.gc_solve_s", Stats.median(tracedSolves.map(_.gcS)), "s"),
          ("jvm.gc_stream_s", tmed(_.gcStreamS), "s"),
          ("jvm.warmup_s", warmupS, "s"),
          ("trace.overhead_pct", 100.0 * (tmed(_.coreS) / med(_.coreS) - 1.0), "%"),
        )
      }

    if (trace) tr.write(new File(s".bench_build/traces/${w.name}-seed$seed.jsonl"))
    spark.stop()

    val attempted = solves + builds + updates + checks
    val failed = failedUpdates + failedChecks
    println("REPORT " + json(Seq(
      "workload" -> str(w.name), "seed" -> seed.toString, "cores" -> cores.toString,
      "heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "rounds" -> rounds.size.toString, "traced_rounds" -> rounds.count(_.traced).toString,
      "setup_reps" -> setupReps.toString,
      "setup_s" -> setupS.map(x => num(x)).mkString("[", ",", "]"),
      "solve_s" -> plainSolves.map(x => num(x.seconds)).mkString("[", ",", "]"),
      "index_build_s" -> plainBuilds.map(b => num(b.seconds)).mkString("[", ",", "]"),
      "stream_s" -> plain.map(r => num(r.streamS)).mkString("[", ",", "]"),
      "update_p50_us" -> plain.map(r => num(r.p50Us)).mkString("[", ",", "]"),
      "update_p99_us" -> plain.map(r => num(r.p99Us)).mkString("[", ",", "]"),
      "solves" -> counts(solves, 0), "index_builds" -> counts(builds, 0),
      "updates" -> counts(updates, failedUpdates), "checks" -> counts(checks, failedChecks),
      "stream_classes" -> json(last.classes.groupBy(identity).toSeq.sortBy(_._1).map { case (c, xs) => c -> xs.length.toString }),
      "failures" -> failures.take(5).map(str).mkString("[", ",", "]"))))
    println("RESULT " + json(Seq(
      "correct" -> (failedChecks == 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> json(metrics.map { case (name, v, unit) =>
        name -> json(Seq("value" -> num(v), "unit" -> str(unit)))
      }))))
  }

  private def byHost(dp: DynamicPacking): Map[Vector[Int], Set[Vector[Int]]] =
    dp.candidates.iterator.map { case (cid, cands) => dp.cliques(cid).toVector.sorted -> cands.toSet }.toMap

  private def canon(r: DisjointResult): Set[Vector[Int]] = r.cliques.map(_.sorted.toVector).toSet

  private def counts(attempted: Long, failed: Long): String =
    json(Seq("attempted" -> attempted.toString, "failed" -> failed.toString))
  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  private def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else java.lang.Double.toString(x)
  private def json(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}
