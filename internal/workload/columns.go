package workload

import "fmt"

// Columns is the structure-of-arrays form of a block of Features records:
// one slice per feature field, index i across all slices describing record i.
// It is the unit the columnar trace codec (internal/colbin) decodes in bulk
// and the batch evaluation path runs through the backend without
// materializing per-job Features on the hot path.
//
// All slices must stay the same length; CheckShape verifies that. A Columns
// block is reused across decodes via Reset, which truncates every column
// while keeping capacity.
type Columns struct {
	Name      []string
	Class     []Class
	CNodes    []int
	BatchSize []int

	FLOPs                []float64
	MemAccessBytes       []float64
	InputBytes           []float64
	DenseWeightBytes     []float64
	EmbeddingWeightBytes []float64
	WeightTrafficBytes   []float64
	ArrivalSec           []float64
}

// Len returns the number of records in the block.
func (c *Columns) Len() int { return len(c.Name) }

// Reset truncates every column to zero length, keeping capacity for reuse.
func (c *Columns) Reset() {
	c.Name = c.Name[:0]
	c.Class = c.Class[:0]
	c.CNodes = c.CNodes[:0]
	c.BatchSize = c.BatchSize[:0]
	c.FLOPs = c.FLOPs[:0]
	c.MemAccessBytes = c.MemAccessBytes[:0]
	c.InputBytes = c.InputBytes[:0]
	c.DenseWeightBytes = c.DenseWeightBytes[:0]
	c.EmbeddingWeightBytes = c.EmbeddingWeightBytes[:0]
	c.WeightTrafficBytes = c.WeightTrafficBytes[:0]
	c.ArrivalSec = c.ArrivalSec[:0]
}

// Append adds one record to the block.
func (c *Columns) Append(f Features) {
	c.Name = append(c.Name, f.Name)
	c.Class = append(c.Class, f.Class)
	c.CNodes = append(c.CNodes, f.CNodes)
	c.BatchSize = append(c.BatchSize, f.BatchSize)
	c.FLOPs = append(c.FLOPs, f.FLOPs)
	c.MemAccessBytes = append(c.MemAccessBytes, f.MemAccessBytes)
	c.InputBytes = append(c.InputBytes, f.InputBytes)
	c.DenseWeightBytes = append(c.DenseWeightBytes, f.DenseWeightBytes)
	c.EmbeddingWeightBytes = append(c.EmbeddingWeightBytes, f.EmbeddingWeightBytes)
	c.WeightTrafficBytes = append(c.WeightTrafficBytes, f.WeightTrafficBytes)
	c.ArrivalSec = append(c.ArrivalSec, f.ArrivalSec)
}

// Row materializes record i as a Features value. The Name string shares its
// backing with the column, so rows are cheap to build.
func (c *Columns) Row(i int) Features {
	return Features{
		Name:                 c.Name[i],
		Class:                c.Class[i],
		CNodes:               c.CNodes[i],
		BatchSize:            c.BatchSize[i],
		FLOPs:                c.FLOPs[i],
		MemAccessBytes:       c.MemAccessBytes[i],
		InputBytes:           c.InputBytes[i],
		DenseWeightBytes:     c.DenseWeightBytes[i],
		EmbeddingWeightBytes: c.EmbeddingWeightBytes[i],
		WeightTrafficBytes:   c.WeightTrafficBytes[i],
		ArrivalSec:           c.ArrivalSec[i],
	}
}

// CheckShape reports an error when the columns disagree on length — the
// structural invariant every consumer of a block may assume afterwards.
func (c *Columns) CheckShape() error {
	n := len(c.Name)
	for _, m := range []int{
		len(c.Class), len(c.CNodes), len(c.BatchSize),
		len(c.FLOPs), len(c.MemAccessBytes), len(c.InputBytes),
		len(c.DenseWeightBytes), len(c.EmbeddingWeightBytes),
		len(c.WeightTrafficBytes), len(c.ArrivalSec),
	} {
		if m != n {
			return fmt.Errorf("workload: ragged columns: %d vs %d records", m, n)
		}
	}
	return nil
}
