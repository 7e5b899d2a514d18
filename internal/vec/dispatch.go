package vec

import "os"

// Kernel dispatch. The five element kernels — wraparound add/sub, the
// fused little-endian decode-add (AddLE, the WAL replay fold), and the
// bulk little-endian (de)serialization — are selected exactly once, at
// package init, and then called through these package-level function
// variables. The selection order is:
//
//  1. `purego` build tag: the assembly kernels (and the unsafe bulk
//     encode) are not even compiled in; everything is the generic Go
//     loop. This is the path the CI purego leg pins.
//  2. EYEWNDER_NOSIMD (any non-empty value) at process start: the
//     generic kernels are selected even though faster ones were
//     compiled in — the runtime off-switch for bisecting a suspected
//     kernel bug in production without rebuilding.
//  3. Hardware capability (internal/vec/cpu): AVX2 on amd64, NEON on
//     arm64. No capable hardware, no SIMD.
//
// Every kernel computes bit-identical results (uint64 wraparound
// arithmetic has no rounding to disagree on); the equivalence tests in
// dispatch_test.go assert it over random lengths, unaligned bases and
// tails, every source byte offset, and wraparound values.
var (
	// Selected kernels, called by Add/Sub/AddLE/PutLE/GetLE and
	// Striped.Add.
	addImpl   func(dst, src []uint64)
	subImpl   func(dst, src []uint64)
	addLEImpl func(dst []uint64, src []byte)
	putLEImpl func(dst []byte, src []uint64)
	getLEImpl func(dst []uint64, src []byte)

	// The init-time selection, kept so ForceGeneric(false) can restore
	// it. When EYEWNDER_NOSIMD was set at startup the selection IS the
	// generic set, so restoring never resurrects a disabled kernel.
	selAdd   func(dst, src []uint64)
	selSub   func(dst, src []uint64)
	selAddLE func(dst []uint64, src []byte)
	selPutLE func(dst []byte, src []uint64)
	selGetLE func(dst []uint64, src []byte)

	// kernelName names the selected arithmetic kernels ("avx2", "neon",
	// "generic"); activeNote carries why a faster path was not taken.
	kernelName = "generic"
	activeNote string
	forced     bool
)

func init() {
	selAdd, selSub, selAddLE = addGeneric, subGeneric, addLEGeneric
	selPutLE, selGetLE = putLEGeneric, getLEGeneric
	if os.Getenv("EYEWNDER_NOSIMD") != "" {
		activeNote = "EYEWNDER_NOSIMD"
	} else {
		pickEncode()  // bulk LE (memmove) encode where unsafe is allowed
		pickKernels() // AVX2 / NEON add, sub and decode-add where the hardware has them
	}
	addImpl, subImpl, addLEImpl = selAdd, selSub, selAddLE
	putLEImpl, getLEImpl = selPutLE, selGetLE
}

// Active names the kernel set in use: "avx2", "neon", or "generic",
// with a parenthesized reason when a faster set was available but not
// selected. Servers log it at startup so an operator can verify which
// path a deployment actually runs.
func Active() string {
	name := kernelName
	if forced {
		return "generic (forced)"
	}
	if activeNote != "" {
		return name + " (" + activeNote + ")"
	}
	return name
}

// ForceGeneric(true) swaps every kernel for the generic Go loop at
// runtime; ForceGeneric(false) restores the init-time selection. It
// exists for the paired asm-vs-generic benchmark rows and the
// equivalence tests; it is NOT synchronized with concurrent kernel
// callers, so flip it only while no kernel call is in flight.
func ForceGeneric(on bool) {
	forced = on
	if on {
		addImpl, subImpl, addLEImpl = addGeneric, subGeneric, addLEGeneric
		putLEImpl, getLEImpl = putLEGeneric, getLEGeneric
		return
	}
	addImpl, subImpl, addLEImpl = selAdd, selSub, selAddLE
	putLEImpl, getLEImpl = selPutLE, selGetLE
}
