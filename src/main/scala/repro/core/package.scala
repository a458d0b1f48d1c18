package repro

package object core {

  /** The old name of a driver-side core, kept only because the frozen
    * benchmark harness in `perfbench/` names it.
    */
  type CoreSub = repro.graph.LocalDigraph
}
