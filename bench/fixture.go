package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// scale is the size of everything a run does. There are two: full (what
// BENCHMARK.json measures) and quick (the smoke tests).
type scale struct {
	fixtureRows int // fixture F, shared by the two scan workloads and the probes
	uploadRows  int // lines per upload op
	blockSize   int
	needleEvery int
	badEvery    int

	// Set-up is done setups times over and the median is reported.
	// Warm-up is count-based, so set-up time scales with the program's
	// speed.
	setups      int
	warmUploads int
	warmWide    int

	// Fixed op counts of the traced run, so its counts repeat exactly.
	tracedUploads int
	tracedWide    int
	probeServe    int // requests of the serve probe, both clients together
	shareWide     int // wide-scan ops in each share pass

	cacheBudget int64 // of the serve probe's server
	coldWidth   int   // centre of the cold filter's width on @9
}

var fullScale = scale{
	fixtureRows: 200_000, uploadRows: 100_000, blockSize: 2 << 20,
	needleEvery: 25_000, badEvery: 10_007,
	setups: 3, warmUploads: 3, warmWide: 3,
	tracedUploads: 20, tracedWide: 10, probeServe: 1000, shareWide: 3,
	cacheBudget: 16 << 20, coldWidth: 100,
}

var quickScale = scale{
	fixtureRows: 5_000, uploadRows: 2_000, blockSize: 64 << 10,
	needleEvery: 1_000, badEvery: 503,
	setups: 2, warmUploads: 1, warmWide: 1,
	tracedUploads: 3, tracedWide: 2, probeServe: 120, shareWide: 1,
	cacheBudget: 1 << 20, coldWidth: 100,
}

const (
	fileName = "/uv"
	nodes    = 4
)

// bobLayout is Bob's configuration (§1.1): three replicas clustered on
// sourceIP, visitDate and adRevenue.
func bobLayout(blockSize int) core.LayoutConfig {
	return core.LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVSourceIP, workload.UVVisitDate, workload.UVAdRevenue},
		BlockSize:   blockSize,
	}
}

func genLines(n int, seed int64, sc scale) []string {
	return workload.GenerateUserVisits(n, seed, workload.UserVisitsOptions{
		NeedleEvery: sc.needleEvery, BadEvery: sc.badEvery,
	})
}

// fixture is an uploaded file on a fresh cluster.
type fixture struct {
	cluster *hdfs.Cluster
	sum     core.UploadSummary
}

// upload is the upload workload's op and every fixture's first step: a
// fresh 4-node cluster and one core.Client.Upload with Bob's layout.
func upload(lines []string, sc scale) (*fixture, time.Duration, error) {
	start := time.Now()
	cl, err := hdfs.NewCluster(nodes)
	if err != nil {
		return nil, 0, err
	}
	client := &core.Client{Cluster: cl, Config: bobLayout(sc.blockSize)}
	sum, err := client.Upload(fileName, lines)
	if err != nil {
		return nil, 0, fmt.Errorf("upload: %w", err)
	}
	return &fixture{cluster: cl, sum: sum}, time.Since(start), nil
}

// queryKind is the shape of a benchmark query; the oracle evaluates each
// shape on text.
type queryKind int

const (
	kindDate    queryKind = iota // one-year visitDate window projecting {@1} (Bob-Q1)
	kindRevenue                  // width-9 adRevenue range projecting {@8,@9,@4} (Bob-Q4)
	kindNeedle                   // sourceIP = needle projecting {@8,@9,@4} (Bob-Q2)
	kindWide                     // @9 between(1,999), all nine attributes
	kindCold                     // @9 between(a,b) projecting {@1,@9}, never indexed
)

// benchQuery is one query with its text-side constants.
type benchQuery struct {
	kind       queryKind
	annotation string
	q          *query.Query
	loDate     string  // kindDate
	hiDate     string  // kindDate
	loRev      float64 // kindRevenue
	hiRev      float64 // kindRevenue
	loDur      int     // kindCold
	hiDur      int     // kindCold
}

func (b benchQuery) indexed() bool { return b.kind <= kindNeedle }

// The generator's visitDate domain (workload.GenerateUserVisits draws
// days uniformly from it; the constants are not exported there).
var visitDateMin = schema.MustDate("1970-01-01")

const (
	visitDateDays = 11807
	maxRevenue    = 500
	maxDuration   = 999
)

func mustParse(ann string) *query.Query {
	q, err := query.ParseAnnotation(workload.UserVisitsSchema(), ann)
	if err != nil {
		panic(err) // annotations are built by this file
	}
	return q
}

func dateQuery(startDay int) benchQuery {
	lo := schema.FormatDate(visitDateMin + int32(startDay))
	hi := schema.FormatDate(visitDateMin + int32(startDay) + 365)
	ann := fmt.Sprintf(`@HailQuery(filter="@3 between(%s,%s)", projection={@1})`, lo, hi)
	return benchQuery{kind: kindDate, annotation: ann, q: mustParse(ann), loDate: lo, hiDate: hi}
}

func revenueQuery(lo int) benchQuery {
	ann := fmt.Sprintf(`@HailQuery(filter="@4 between(%d,%d)", projection={@8,@9,@4})`, lo, lo+9)
	return benchQuery{kind: kindRevenue, annotation: ann, q: mustParse(ann), loRev: float64(lo), hiRev: float64(lo + 9)}
}

func needleQuery() benchQuery {
	ann := `@HailQuery(filter="@1 = ` + workload.NeedleIP + `", projection={@8,@9,@4})`
	return benchQuery{kind: kindNeedle, annotation: ann, q: mustParse(ann)}
}

func wideQuery() benchQuery {
	ann := `@HailQuery(filter="@9 between(1,999)")`
	return benchQuery{kind: kindWide, annotation: ann, q: mustParse(ann)}
}

func coldQuery(lo, hi int) benchQuery {
	ann := fmt.Sprintf(`@HailQuery(filter="@9 between(%d,%d)", projection={@1,@9})`, lo, hi)
	return benchQuery{kind: kindCold, annotation: ann, q: mustParse(ann), loDur: lo, hiDur: hi}
}

// distinct draws n distinct ints from [0, max).
func distinct(rng *rand.Rand, n, max int) []int {
	return rng.Perm(max)[:n]
}

// indexedQueries draws nDate date windows and nRev revenue ranges.
func indexedQueries(rng *rand.Rand, nDate, nRev int) []benchQuery {
	var qs []benchQuery
	for _, d := range distinct(rng, nDate, visitDateDays-366) {
		qs = append(qs, dateQuery(d))
	}
	for _, r := range distinct(rng, nRev, maxRevenue-9) {
		qs = append(qs, revenueQuery(r))
	}
	return qs
}

// scanQueries is index-scan's list: 30 date windows, 30 revenue ranges
// and the needle, seed-shuffled. Every seed gives the same shapes with
// other constants.
func scanQueries(seed int64) []benchQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca9))
	qs := append(indexedQueries(rng, 30, 30), needleQuery())
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// hotSet is the size of the serve probe's fixed hot set.
const hotSet = 16

// hotQueries is that set: 8 date windows, 8 revenue ranges.
func hotQueries(seed int64) []benchQuery {
	return indexedQueries(rand.New(rand.NewSource(seed^0x407)), hotSet/2, hotSet/2)
}

// coldStream yields the serve probe's never-repeated unindexed filters: every
// (lo, width) pair with width within ±10 of coldWidth, in seed-shuffled
// order, so selectivity (and a miss's cost) stays within a tenth.
type coldStream struct {
	order []int
	width int
	los   int
}

func newColdStream(seed int64, sc scale) *coldStream {
	los := maxDuration - sc.coldWidth - 10
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	return &coldStream{order: rng.Perm(los * 21), width: sc.coldWidth, los: los}
}

// at returns the i-th cold query; it fails once the stream is exhausted,
// because a repeat would be a hit.
func (c *coldStream) at(i int) (benchQuery, error) {
	if i >= len(c.order) {
		return benchQuery{}, fmt.Errorf("cold stream exhausted after %d queries", len(c.order))
	}
	k := c.order[i]
	lo := 1 + k%c.los
	w := c.width - 10 + k/c.los
	return coldQuery(lo, lo+w), nil
}

// request is one request of the serve probe.
type request struct {
	bq  benchQuery
	hot bool
	idx int // position in the hot set, when hot
}

// requestStream is one client's seed-derived stream: 75% hot (uniform
// over the hot set), 25% cold — exactly one request in every four, at a
// seeded position, so that two runs of any length send the same mix.
// Client c of n takes cold queries c, c+n, c+2n, … so no two clients ever
// send the same one.
type requestStream struct {
	rng     *rand.Rand
	hot     []benchQuery
	cold    *coldStream
	next    int
	clients int
	sent    int
	coldPos int // which of the current four requests is the cold one
}

func newRequestStream(seed int64, client, clients int, hot []benchQuery, cold *coldStream) *requestStream {
	return &requestStream{
		rng: rand.New(rand.NewSource(seed*31 + int64(client))),
		hot: hot, cold: cold, next: client, clients: clients,
	}
}

func (s *requestStream) take() (request, error) {
	if s.sent%4 == 0 {
		s.coldPos = s.rng.Intn(4)
	}
	s.sent++
	if (s.sent-1)%4 != s.coldPos {
		idx := s.rng.Intn(len(s.hot))
		return request{bq: s.hot[idx], hot: true, idx: idx}, nil
	}
	bq, err := s.cold.at(s.next)
	s.next += s.clients
	return request{bq: bq}, err
}
