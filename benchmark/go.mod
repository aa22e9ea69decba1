// The benchmark is a module of its own so that it is built by its own
// build file and nothing outside benchmark/ changes when it changes. The
// path is under mmx/ so the driver may import mmx/internal/... packages.
module mmx/benchmark

go 1.22

require mmx v0.0.0

replace mmx => ../
