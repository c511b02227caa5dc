// Token-ring bus arbiter — the classic cyclic-but-constructive circuit
// (Berry's arbiter, the standard benchmark for constructive cycles).
//
// A token rotates over three stations; each instant station i may grant
// its request (Gi) if it sees the token (Ti) or the pass wire of its
// predecessor (P(i-1)), and otherwise passes the opportunity on (Pi).
// The pass wires form a combinational cycle P1 -> P2 -> P3 -> P1, yet
// every instant is constructive: the station holding the token resolves
// its OR gate without waiting on the incoming pass, and the resolution
// propagates around the ring from there.
//
// The static analyzer classifies the cycle as input-dependent (it cannot
// see that exactly one token is always present), so the machine runs it
// with the block walker: levelized sweeps everywhere, bounded
// constructive iteration inside this one SCC.
//
// Try:
//   hiphopc analyze examples/hh/cyclic_arbiter.hh
//   hiphopc trace examples/hh/cyclic_arbiter.hh --stimulus ";R1;R2;R1 R2;R3"
//
// (The reference AST interpreter is not fully constructive — it decides
// undetermined signals by speculating absence — so `oracle` rejects this
// example; the engine-differential golden trace covers it instead.)
module CyclicArbiter(in R1, in R2, in R3, out G1, out G2, out G3) {
   signal T1, T2, T3, P1, P2, P3;
   fork {
      // The token: exactly one station holds it each instant.
      loop { emit T1(); pause; emit T2(); pause; emit T3(); pause; }
   } par {
      // Station 1: grant on request, else pass to the next station.
      // The stations must run in parallel — sequencing them would add
      // control dependencies against the ring and break constructiveness.
      loop {
         if (T1.now || P3.now) {
            if (R1.now) { emit G1(); } else { emit P1(); }
         }
         pause;
      }
   } par {
      loop {
         if (T2.now || P1.now) {
            if (R2.now) { emit G2(); } else { emit P2(); }
         }
         pause;
      }
   } par {
      loop {
         if (T3.now || P2.now) {
            if (R3.now) { emit G3(); } else { emit P3(); }
         }
         pause;
      }
   }
}
