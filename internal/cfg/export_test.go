package cfg

// AnalyzeRef is the reference analysis with map-based loop bodies.
var AnalyzeRef = analyzeRef
