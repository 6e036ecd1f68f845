package core

import (
	"bytes"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/pax"
	"repro/internal/schema"
	"repro/internal/workload"
)

// userVisitsPax is the block a HAIL client would send for the given lines:
// parsed rows and bad records, marshalled in arrival order.
func userVisitsPax(tb testing.TB, lines []string) []byte {
	tb.Helper()
	b := pax.NewBlock(workload.UserVisitsSchema())
	parser := schema.NewParser(b.Schema())
	for _, line := range lines {
		if row, err := parser.ParseLine(line); err != nil {
			b.AppendBad(line)
		} else if err := b.AppendRow(row); err != nil {
			tb.Fatal(err)
		}
	}
	data, err := b.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzParseFrame: whatever the bytes, splitting a stored replica yields
// two sections that tile it exactly or an error, never a panic, and copies
// nothing. Seeded with what a datanode stores: an indexed replica of a
// sorted block with bad records, and an unsorted one without index.
func FuzzParseFrame(f *testing.F) {
	paxData := userVisitsPax(f, workload.GenerateUserVisits(300, 5, workload.UserVisitsOptions{BadEvery: 50}))
	indexed, _, err := BuildIndexedReplica(paxData, workload.UVVisitDate)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indexed)
	f.Add(FrameReplica(paxData, nil))
	f.Add(indexed[:frameHeader])
	f.Add([]byte(frameMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var paxPart, ixPart []byte
		var err error
		fuzzcheck.BoundedAlloc(t, 0, func() { paxPart, ixPart, err = ParseFrame(data) })
		if err != nil {
			return
		}
		if frameHeader+len(paxPart)+len(ixPart) != len(data) ||
			!bytes.Equal(FrameReplica(paxPart, ixPart), data) {
			t.Fatalf("sections of %d+%d bytes do not reassemble the %d-byte frame", len(paxPart), len(ixPart), len(data))
		}
	})
}
