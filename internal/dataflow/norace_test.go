//go:build !race

package dataflow

// raceBuild reports a build with the race detector, whose instrumentation
// allocates where the normal build does not.
const raceBuild = false
