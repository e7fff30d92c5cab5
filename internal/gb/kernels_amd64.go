package gb

import (
	"unsafe"

	"gbpolar/internal/surface"
)

// The AVX2+FMA kernels of kernels_amd64.s; kernels.go holds their Go
// callers, fallbacks and contract.

// bornNearAVX reads surface.QPoint records as 64 bytes with Pos at 0,
// Normal at 24 and Weight at 48, and both near kernels gather atomRec
// records as 32 bytes with pos at 0 and q at 24; these declarations stop
// compiling if either layout moves.
var (
	_ [unsafe.Sizeof(surface.QPoint{}) - 64]struct{}          = [0]struct{}{}
	_ [unsafe.Offsetof(surface.QPoint{}.Pos)]struct{}         = [0]struct{}{}
	_ [unsafe.Offsetof(surface.QPoint{}.Normal) - 24]struct{} = [0]struct{}{}
	_ [unsafe.Offsetof(surface.QPoint{}.Weight) - 48]struct{} = [0]struct{}{}
	_ [unsafe.Sizeof(atomRec{}) - 32]struct{}                 = [0]struct{}{}
	_ [unsafe.Offsetof(atomRec{}.pos)]struct{}                = [0]struct{}{}
	_ [unsafe.Offsetof(atomRec{}.q) - 24]struct{}             = [0]struct{}{}
)

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func expAVX(x, out *[4]float64) (ok uint8)

//go:noescape
func bornNearAVX(recs *atomRec, pos *int32, groups int, pts *surface.QPoint, items *int32, nq int, r6 bool, out *float64, flags *uint8)

//go:noescape
func nearRowsAVX(recs *atomRec, radii *float64, pos *int32, groups int, v *atomRec, vR *float64, nv int, rows *float64, flags *uint8)

//go:noescape
func farTableAVX(pw *float64, n int, r2 float64, out *farKernel) (bad bool)

// detectCPU reads the features the kernels need: AVX2 and FMA from CPUID,
// and from XGETBV whether the OS saves the YMM state across context
// switches (without it AVX instructions fault or corrupt registers).
func detectCPU() cpuFeatures {
	var f cpuFeatures
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	f.fma = ecx1&(1<<12) != 0
	osxsave := ecx1&(1<<27) != 0
	avx := ecx1&(1<<28) != 0
	if osxsave && avx {
		f.osYMM = xgetbv()&6 == 6
	}
	_, ebx7, _, _ := cpuid(7, 0)
	f.avx2 = ebx7&(1<<5) != 0
	return f
}
