// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive points it at the engine it measures.
// Its import path keeps the linrec/ prefix, which is what lets it time
// calls into linrec/internal/... from outside.
module linrec/bench

go 1.21

require linrec v0.0.0

replace linrec => ../
