// tsbench is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` neither builds nor runs it; the
// replace directive points it at the tree it measures.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
