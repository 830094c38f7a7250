package opt

// LICMRef is the reference loop-invariant code motion that analyzes
// the CFG once per hoist.
var LICMRef = licmRef
