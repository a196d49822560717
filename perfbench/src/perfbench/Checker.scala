package perfbench

import java.util.Arrays

/** An undirected simple graph as a sorted array of canonical edge keys
  * `(lo << 32) | hi`, lo < hi. This is the benchmark's own record of
  * which edges exist; the checker below reads nothing else.
  */
final class EdgeSet(val n: Int, val keys: Array[Long]) {
  def has(u: Int, v: Int): Boolean = u != v && Arrays.binarySearch(keys, EdgeSet.key(u, v)) >= 0

  /** This set without the given keys. */
  def without(drop: Array[Long]): EdgeSet = {
    val gone = drop.clone()
    Arrays.sort(gone)
    new EdgeSet(n, keys.filter(e => Arrays.binarySearch(gone, e) < 0))
  }
}

object EdgeSet {
  def key(u: Int, v: Int): Long = (math.min(u, v).toLong << 32) | math.max(u, v).toLong
  def lo(e: Long): Int = (e >>> 32).toInt
  def hi(e: Long): Int = (e & 0xffffffffL).toInt
}

/** Output checker that does not use the program's `Validation`: every
  * clique has k distinct pairwise-adjacent nodes, the cliques are
  * pairwise disjoint, and no k-clique is left among uncovered nodes.
  */
object Checker {

  /** None when `s` passes, otherwise the first reason it does not. */
  def check(g: EdgeSet, k: Int, s: Iterable[Array[Int]]): Option[String] = {
    val covered = new Array[Boolean](g.n)
    for (c <- s) {
      val show = c.mkString(",")
      if (c.length != k) return Some(s"clique {$show} has ${c.length} nodes, expected $k")
      for (i <- c.indices; j <- i + 1 until c.length) {
        if (c(i) == c(j)) return Some(s"clique {$show} repeats node ${c(i)}")
        if (!g.has(c(i), c(j))) return Some(s"clique {$show} lacks edge (${c(i)},${c(j)})")
      }
      for (v <- c) {
        if (covered(v)) return Some(s"node $v lies in two cliques")
        covered(v) = true
      }
    }
    freeClique(g, k, covered).map(c => s"not maximal: uncovered $k-clique {${c.mkString(",")}}")
  }

  /** A k-clique among uncovered nodes, if one exists. Each clique is
    * rooted at its lowest id; the forward lists are sorted because the
    * keys are sorted by (lo, hi).
    */
  private def freeClique(g: EdgeSet, k: Int, covered: Array[Boolean]): Option[Array[Int]] = {
    val off = new Array[Int](g.n + 1)
    for (e <- g.keys if !covered(EdgeSet.lo(e)) && !covered(EdgeSet.hi(e))) off(EdgeSet.lo(e) + 1) += 1
    for (u <- 0 until g.n) off(u + 1) += off(u)
    val fwd = new Array[Int](off(g.n))
    val fill = off.clone()
    for (e <- g.keys if !covered(EdgeSet.lo(e)) && !covered(EdgeSet.hi(e))) {
      fwd(fill(EdgeSet.lo(e))) = EdgeSet.hi(e); fill(EdgeSet.lo(e)) += 1
    }
    val width = (0 until g.n).map(u => off(u + 1) - off(u)).foldLeft(0)(math.max)
    val cand = Array.ofDim[Int](k, width)
    val path = new Array[Int](k)

    // cand(depth) holds the common forward neighbours of path(0 until depth)
    def grow(depth: Int, len: Int): Boolean = {
      var i = 0
      while (i < len) {
        val v = cand(depth - 1)(i)
        path(depth) = v
        if (depth == k - 1) return true
        var a = i + 1
        var b = off(v)
        var out = 0
        while (a < len && b < off(v + 1)) {
          val x = cand(depth - 1)(a); val y = fwd(b)
          if (x == y) { cand(depth)(out) = x; out += 1; a += 1; b += 1 }
          else if (x < y) a += 1
          else b += 1
        }
        if (out >= k - 1 - depth && grow(depth + 1, out)) return true
        i += 1
      }
      false
    }

    var u = 0
    while (u < g.n) {
      val len = off(u + 1) - off(u)
      if (len >= k - 1) {
        path(0) = u
        System.arraycopy(fwd, off(u), cand(0), 0, len)
        if (grow(1, len)) return Some(path.clone())
      }
      u += 1
    }
    None
  }
}
