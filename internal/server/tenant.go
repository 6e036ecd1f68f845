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
// plus cumulative admission charges and denial counts.
type tenantState struct {
	name   string
	limits TenantLimits

	queries         atomic.Int64
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

// tenantTable creates tenant states on first use. Tenants named in the
// server config get their configured limits; unknown tenants get the
// default limits (typically unlimited).
type tenantTable struct {
	mu       sync.Mutex
	tenants  map[string]*tenantState
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

func (tt *tenantTable) get(name string) *tenantState {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if t, ok := tt.tenants[name]; ok {
		return t
	}
	lim, ok := tt.limits[name]
	if !ok {
		lim = tt.defaults
	}
	t := &tenantState{name: name, limits: lim}
	tt.tenants[name] = t
	return t
}

// TenantReport is the /tenants view of one tenant's ledger.
type TenantReport struct {
	Tenant          string `json:"tenant"`
	Queries         int64  `json:"queries"`
	CacheCharged    int64  `json:"cache_charged_bytes"`
	CacheLimit      int64  `json:"cache_limit_bytes"`
	CacheDenied     int64  `json:"cache_denied"`
	AdaptiveCharged int64  `json:"adaptive_charged_bytes"`
	AdaptiveLimit   int64  `json:"adaptive_limit_bytes"`
	AdaptiveDenied  int64  `json:"adaptive_denied"`
}

func (tt *tenantTable) reports() []TenantReport {
	tt.mu.Lock()
	states := make([]*tenantState, 0, len(tt.tenants))
	for _, t := range tt.tenants {
		states = append(states, t)
	}
	tt.mu.Unlock()
	out := make([]TenantReport, 0, len(states))
	for _, t := range states {
		out = append(out, TenantReport{
			Tenant:          t.name,
			Queries:         t.queries.Load(),
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
// one tenant's admission ledger: reads delegate straight to the shared
// cache (a hit is a hit no matter who warmed it), writes are charged
// against the tenant's CacheBytes allowance and silently dropped once it
// is exhausted — the tenant's queries still run, they just stop warming
// the shared cache at everyone else's expense.
type tenantCache struct {
	shared *qcache.Cache
	ts     *tenantState
}

func (c tenantCache) Get(k mapred.CacheKey) ([]mapred.KV, mapred.TaskStats, bool) {
	return c.shared.Get(k)
}

func (c tenantCache) Put(k mapred.CacheKey, kvs []mapred.KV, stats mapred.TaskStats) bool {
	cost := qcache.EntryCost(k, kvs)
	if !c.ts.admitCache(cost) {
		return false
	}
	if !c.shared.Put(k, kvs, stats) {
		// The cache refused it (larger than the whole budget): nothing
		// became resident, so nothing is charged.
		c.ts.cacheCharged.Add(-cost)
		return false
	}
	return true
}
