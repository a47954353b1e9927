// Package explore owns the exploration of privacy-LTS generation: one
// deterministic, level-synchronised parallel BFS driver over packed uint64
// state encodings, plus the model differ that decides whether a previous
// generation can be reused.
//
//   - the driver: an Expander supplies the initial state and the successor
//     enumeration; Run expands each frontier generation on Config.Workers
//     goroutines and merges the discoveries on one goroutine in frontier
//     order, so state numbering, edge order and the final Result are
//     identical for every worker count — the property the rest of the
//     repository (digest tests, modelstore artifacts, the cluster
//     determinism harness) relies on.
//
//   - arena/slab allocation: frontier candidate states and transition buffers
//     come from per-worker reusable arenas whose lifetime is one BFS
//     generation; survivors are copied into a single retained state slab, so
//     steady-state exploration performs no per-candidate heap allocation.
//
//   - Diff: classifies the delta between two data-flow models as identical,
//     metadata, policy or unsafe. Only identical and metadata deltas leave
//     the explored structure untouched; package core relabels the previous
//     LTS for those and explores cold for everything else.
//
// The driver is deliberately agnostic about what the packed words mean.
package explore
