package search

// CoarseStage exposes DAT's lattice stage to the external tests, which
// check it against ReferenceCoarse on the experiments' shapes.
var CoarseStage = coarseStage
