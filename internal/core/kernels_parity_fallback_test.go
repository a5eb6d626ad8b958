//go:build purego || !amd64

package core

// vectorKernelsUnderTest is empty on builds whose dispatch resolves to
// the scalar reference; the parity tests then only pin the dispatched
// function to the scalar body.
func vectorKernelsUnderTest() []kernelUnderTest { return nil }
