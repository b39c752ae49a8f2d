package core

import (
	"sort"

	"repro/internal/failures"
)

// DriftRow contrasts one failure category's share across two generations
// (RQ1's "the dominant failure types are different on both systems").
type DriftRow struct {
	Category   failures.Category
	OldPercent float64 // 0 when the category does not exist on the old system
	NewPercent float64 // 0 when the category does not exist on the new system
	// Delta is NewPercent - OldPercent.
	Delta float64
	// OldOnly/NewOnly mark taxonomy differences (Table II changed between
	// generations).
	OldOnly, NewOnly bool
}

// CategoryDrift aligns two category breakdowns and returns the share
// movement per category, sorted by descending |Delta|.
func CategoryDrift(old, new_ []CategoryShare) []DriftRow {
	byCat := make(map[failures.Category]*DriftRow, len(old))
	for side, shares := range [][]CategoryShare{old, new_} {
		for _, s := range shares {
			r := byCat[s.Category]
			if r == nil {
				r = &DriftRow{Category: s.Category, OldOnly: side == 0, NewOnly: side == 1}
				byCat[s.Category] = r
			}
			if side == 0 {
				r.OldPercent = s.Percent
			} else {
				r.NewPercent, r.OldOnly = s.Percent, false
			}
		}
	}
	var rows []DriftRow
	for _, r := range byCat {
		r.Delta = r.NewPercent - r.OldPercent
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		di, dj := abs(rows[i].Delta), abs(rows[j].Delta)
		if di != dj {
			return di > dj
		}
		return rows[i].Category < rows[j].Category
	})
	return rows
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
