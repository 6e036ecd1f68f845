package server

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mapred"
	"repro/internal/qcache"
)

// TenantLimits is one tenant's byte budgets against the shared state. Both
// are *admission allowances*, not residency guarantees: the shared cache
// and the shared adaptive indexer evict by their own global policies
// (2Q / heat), and an eviction is not attributed back to the tenant whose
// query admitted the bytes. 0 means unlimited.
type TenantLimits struct {
	// CacheBytes caps the cumulative result-cache bytes this tenant's
	// queries may admit (qcache.EntryCost currency).
	CacheBytes int64
	// AdaptiveBytes caps the cumulative adaptive replica bytes this
	// tenant's queries may trigger; once exceeded, further queries run
	// with adaptive indexing disabled (they still use indexes others
	// built).
	AdaptiveBytes int64
}

// tenantState is the server's ledger for one tenant: configured limits
// plus cumulative admission charges, denial counts and the work its
// queries did. metrics prefixes its histograms' names.
type tenantState struct {
	name    string
	limits  TenantLimits
	metrics string // "server.tenant.<name>.", or overflowMetrics

	queries         atomic.Int64
	rejected        atomic.Int64 // turned away at admission (429)
	blocks          atomic.Int64
	blocksFromCache atomic.Int64
	cacheCharged    atomic.Int64
	cacheDenied     atomic.Int64
	adaptiveCharged atomic.Int64
	adaptiveDenied  atomic.Int64
}

// admitCache reserves cost bytes of cache-admission allowance. With no
// limit the charge is recorded (for /tenants reporting) and always
// granted.
func (t *tenantState) admitCache(cost int64) bool {
	lim := t.limits.CacheBytes
	if lim <= 0 {
		t.cacheCharged.Add(cost)
		return true
	}
	for {
		cur := t.cacheCharged.Load()
		if cur+cost > lim {
			t.cacheDenied.Add(1)
			return false
		}
		if t.cacheCharged.CompareAndSwap(cur, cur+cost) {
			return true
		}
	}
}

// adaptiveAllowed reports whether this tenant may still trigger adaptive
// builds; called at query admission, before the engine is wired.
func (t *tenantState) adaptiveAllowed() bool {
	lim := t.limits.AdaptiveBytes
	return lim <= 0 || t.adaptiveCharged.Load() < lim
}

// A request may give any tenant string, and a ledger and its histograms
// live as long as the process, so past maxOtherTenants names the config
// does not give, every further one is charged to one overflow ledger. No
// tenant name can produce its histograms' prefix.
const (
	maxOtherTenants = 64
	overflowMetrics = "server.tenant_overflow."
)

// tenantTable creates tenant states on first use. Tenants named in the
// server config get their configured limits; the first maxOtherTenants
// others get the default limits (typically unlimited), and every one after
// them shares the overflow ledger and its default limits.
type tenantTable struct {
	mu       sync.Mutex
	tenants  map[string]*tenantState
	others   int          // ledgers for names the config does not give
	overflow *tenantState // made on the first overflow; no name maps to it
	limits   map[string]TenantLimits
	defaults TenantLimits
}

func newTenantTable(limits map[string]TenantLimits, defaults TenantLimits) *tenantTable {
	return &tenantTable{
		tenants:  make(map[string]*tenantState),
		limits:   limits,
		defaults: defaults,
	}
}

// get returns the ledger the tenant's queries are charged to.
func (tt *tenantTable) get(name string) *tenantState {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if t, ok := tt.tenants[name]; ok {
		return t
	}
	lim, named := tt.limits[name]
	if !named {
		if tt.others == maxOtherTenants {
			if tt.overflow == nil {
				tt.overflow = &tenantState{limits: tt.defaults, metrics: overflowMetrics}
			}
			return tt.overflow
		}
		lim = tt.defaults
		tt.others++
	}
	t := &tenantState{name: name, limits: lim, metrics: "server.tenant." + name + "."}
	tt.tenants[name] = t
	return t
}

// TenantReport is the /tenants view of one tenant's ledger; the overflow
// ledger's has Overflow and an empty Tenant. Rejected counts 429s, and
// BlocksFromCache / Blocks is the tenant's cache hit ratio.
type TenantReport struct {
	Tenant          string `json:"tenant"`
	Overflow        bool   `json:"overflow,omitempty"`
	Queries         int64  `json:"queries"`
	Rejected        int64  `json:"rejected"`
	Blocks          int64  `json:"blocks"`
	BlocksFromCache int64  `json:"blocks_from_cache"`
	CacheCharged    int64  `json:"cache_charged_bytes"`
	CacheLimit      int64  `json:"cache_limit_bytes"`
	CacheDenied     int64  `json:"cache_denied"`
	AdaptiveCharged int64  `json:"adaptive_charged_bytes"`
	AdaptiveLimit   int64  `json:"adaptive_limit_bytes"`
	AdaptiveDenied  int64  `json:"adaptive_denied"`
}

func (tt *tenantTable) reports() []TenantReport {
	tt.mu.Lock()
	states := make([]*tenantState, 0, len(tt.tenants)+1)
	for _, t := range tt.tenants {
		states = append(states, t)
	}
	if tt.overflow != nil {
		states = append(states, tt.overflow)
	}
	tt.mu.Unlock()
	out := make([]TenantReport, 0, len(states))
	for _, t := range states {
		out = append(out, TenantReport{
			Tenant:          t.name,
			Overflow:        t.metrics == overflowMetrics,
			Queries:         t.queries.Load(),
			Rejected:        t.rejected.Load(),
			Blocks:          t.blocks.Load(),
			BlocksFromCache: t.blocksFromCache.Load(),
			CacheCharged:    t.cacheCharged.Load(),
			CacheLimit:      t.limits.CacheBytes,
			CacheDenied:     t.cacheDenied.Load(),
			AdaptiveCharged: t.adaptiveCharged.Load(),
			AdaptiveLimit:   t.limits.AdaptiveBytes,
			AdaptiveDenied:  t.adaptiveDenied.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// tenantCache is the per-query view of the shared result cache through
// one tenant's admission ledger: reads and the packing probe go straight
// to the shared cache (a hit is a hit no matter who warmed it), writes are
// charged against the tenant's CacheBytes allowance and silently dropped
// once it is exhausted — the tenant's queries still run, they just stop
// warming the shared cache at everyone else's expense.
type tenantCache struct {
	*qcache.Cache
	ts *tenantState
}

func (c tenantCache) PutChunk(k mapred.CacheKey, chunk mapred.Chunk, stats mapred.TaskStats) bool {
	cost := qcache.EntryCost(k, chunk)
	if !c.ts.admitCache(cost) {
		return false
	}
	if !c.Cache.PutChunk(k, chunk, stats) {
		// The cache refused it (larger than the whole budget): nothing
		// became resident, so nothing is charged.
		c.ts.cacheCharged.Add(-cost)
		return false
	}
	return true
}
