package cost

// ModelVersion identifies the semantics of this package's memory-access
// cost model: Evaluate's access counting, the NRA classification, and the
// footprint accounting.
//
// Any change that can alter an Access value for some (operator, dataflow)
// pair — a new traffic term, a fixed accounting bug, a different
// tie-relevant rounding — must bump this string. fusecu-route refuses to
// front a fleet whose replicas disagree on it, because identical requests
// return bit-identical answers only within one cost-model generation.
const ModelVersion = "cm1"
