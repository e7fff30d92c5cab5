package surface

import (
	"bufio"
	"fmt"
	"io"
)

// WriteXYZ writes the quadrature points as an XYZ point cloud (element
// column "S" for surface), loadable by any molecular viewer.
func (s *Surface) WriteXYZ(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\nsurface quadrature points\n", len(s.Points)); err != nil {
		return err
	}
	for _, q := range s.Points {
		if _, err := fmt.Fprintf(bw, "S %.4f %.4f %.4f\n", q.Pos.X, q.Pos.Y, q.Pos.Z); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WritePLY writes the quadrature points as an ASCII PLY point cloud with
// per-point normals and the integration weight as a "quality" property —
// the standard interchange format for surface inspection tools.
func (s *Surface) WritePLY(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := "ply\nformat ascii 1.0\n" +
		fmt.Sprintf("element vertex %d\n", len(s.Points)) +
		"property float x\nproperty float y\nproperty float z\n" +
		"property float nx\nproperty float ny\nproperty float nz\n" +
		"property float quality\nend_header\n"
	if _, err := bw.WriteString(header); err != nil {
		return err
	}
	for _, q := range s.Points {
		if _, err := fmt.Fprintf(bw, "%.4f %.4f %.4f %.4f %.4f %.4f %.6f\n",
			q.Pos.X, q.Pos.Y, q.Pos.Z,
			q.Normal.X, q.Normal.Y, q.Normal.Z, q.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}
