// The benchmark is its own module so the repo's build files stay untouched;
// the replace directive points at the checkout it sits in, and the tero/
// path prefix is what lets it import tero/internal/... .
module tero/bench

go 1.22

require tero v0.0.0

replace tero => ../
