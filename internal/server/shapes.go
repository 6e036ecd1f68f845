package server

import (
	"sort"
	"sync"
	"time"
)

// A query's shape is its signature's hash (the log line's and the
// profiler's sig): one shape per normalized predicate and projection,
// whatever the tenant. The shape ledger counts each shape's completed
// queries and their total time, for the first maxShapes shapes it meets;
// every further shape is charged to one overflow row, so a stream of
// distinct queries cannot grow it.
const maxShapes = 64

// shapeState is one row of the shape ledger.
type shapeState struct {
	queries int64
	total   time.Duration
}

// shapeTable is the server's shape ledger.
type shapeTable struct {
	mu       sync.Mutex
	shapes   map[string]*shapeState
	overflow shapeState
}

func newShapeTable() *shapeTable {
	return &shapeTable{shapes: make(map[string]*shapeState)}
}

// record charges one completed query of shape sig that took d.
func (st *shapeTable) record(sig string, d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	row, ok := st.shapes[sig]
	if !ok {
		row = &st.overflow
		if len(st.shapes) < maxShapes {
			row = &shapeState{}
			st.shapes[sig] = row
		}
	}
	row.queries++
	row.total += d
}

// ShapeReport is the /shapes view of one query shape; the overflow row has
// Overflow and an empty Shape.
type ShapeReport struct {
	Shape    string  `json:"shape"`
	Overflow bool    `json:"overflow,omitempty"`
	Queries  int64   `json:"queries"`
	TotalMS  float64 `json:"total_ms"`
}

// reports lists the ledger's rows by total time, the largest first.
func (st *shapeTable) reports() []ShapeReport {
	st.mu.Lock()
	out := make([]ShapeReport, 0, len(st.shapes)+1)
	for sig, row := range st.shapes {
		out = append(out, ShapeReport{Shape: sig, Queries: row.queries, TotalMS: float64(row.total) / 1e6})
	}
	if st.overflow.queries > 0 {
		out = append(out, ShapeReport{Overflow: true, Queries: st.overflow.queries, TotalMS: float64(st.overflow.total) / 1e6})
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}
