package repro

import repro.graph.{LocalDigraph, PairDegrees}

package object core {

  /** A pair (S,T) on its way to a core: Left while its edges are still in
    * Spark (the exact degrees of E(S,T), see [[PairDegrees]]), Right once
    * they are on the driver. [[XYCore.peel]] takes and returns it.
    */
  type PairState = Either[PairDegrees, LocalDigraph]

  /** The old name of a driver-side core, kept only because the frozen
    * benchmark harness in `perfbench/` names it.
    */
  type CoreSub = repro.graph.LocalDigraph
}
