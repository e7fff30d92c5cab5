//go:build !amd64

package gb

import "gbpolar/internal/surface"

// Hosts other than amd64 run the Go loops: detectCPU reports no vector
// features, so vecKernels stays false and the kernels below are never
// called.

func detectCPU() cpuFeatures { return cpuFeatures{} }

func expAVX(x, out *[4]float64) (ok uint8) { return 0 }

func bornNearAVX(recs *atomRec, pos *int32, groups int, pts *surface.QPoint, items *int32, nq int, r6 bool, out *float64, flags *uint8) {
}

func nearRowsAVX(recs *atomRec, radii *float64, pos *int32, groups int, v *atomRec, vR *float64, nv int, rows *float64, flags *uint8) {
}

func farTableAVX(pw *float64, n int, r2 float64, out *farKernel) (bad bool) { return true }
