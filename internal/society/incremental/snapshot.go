package incremental

import (
	"sort"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// numShards buckets the pair-probability store so a refresh clones only
// the shards the churn actually touched (copy-on-write). Power of two.
const numShards = 256

// shardOf hashes a canonical pair to its shard (FNV-1a over "A|B").
func shardOf(p society.Pair) int {
	h := uint32(2166136261)
	for i := 0; i < len(p.A); i++ {
		h = (h ^ uint32(p.A[i])) * 16777619
	}
	h = (h ^ '|') * 16777619
	for i := 0; i < len(p.B); i++ {
		h = (h ^ uint32(p.B[i])) * 16777619
	}
	return int(h & (numShards - 1))
}

// pairIndex is an immutable, sharded view of the learned social state:
// per-pair P(L|E) plus the type prior. It mirrors society.Model.Index
// exactly, so a selector reading a snapshot and one reading a freshly
// built batch Model agree on every θ. Shards are never mutated after
// publication; a refresh clones only dirty shards and shares the rest
// with the previous snapshot.
type pairIndex struct {
	shards [numShards]map[society.Pair]float64
	types  map[trace.UserID]int
	matrix [][]float64
	alpha  float64
}

// prob returns the support-passing co-leave probability for p.
func (px *pairIndex) prob(p society.Pair) (float64, bool) {
	v, ok := px.shards[shardOf(p)][p]
	return v, ok
}

// Index computes θ(u,v) = P(L|E) + α·T, exactly as society.Model.Index.
func (px *pairIndex) Index(u, v trace.UserID) float64 {
	if u == v {
		return 0
	}
	p := society.MakePair(u, v)
	theta := px.shards[shardOf(p)][p]
	tu, okU := px.types[u]
	tv, okV := px.types[v]
	if okU && okV && tu < len(px.matrix) && tv < len(px.matrix) {
		theta += px.alpha * px.matrix[tu][tv]
	}
	return theta
}

// pendingProb is a staged pair-probability update (present=false deletes,
// which cannot happen today — encounters are monotone — but keeps the
// representation total).
type pendingProb struct {
	val     float64
	present bool
}

// withUpdates returns a new pairIndex with the staged probability
// changes applied and the given type assignment attached. Only shards
// containing a staged pair are cloned; the rest are shared. Returns the
// number of shards cloned.
func (px *pairIndex) withUpdates(probs map[society.Pair]pendingProb,
	types map[trace.UserID]int, matrix [][]float64, alpha float64) (*pairIndex, int) {
	nx := &pairIndex{types: types, matrix: matrix, alpha: alpha}
	nx.shards = px.shards
	cloned := make(map[int]bool)
	for p, pp := range probs {
		si := shardOf(p)
		if !cloned[si] {
			cloned[si] = true
			fresh := make(map[society.Pair]float64, len(px.shards[si])+1)
			for k, v := range px.shards[si] {
				fresh[k] = v
			}
			nx.shards[si] = fresh
		}
		if pp.present {
			nx.shards[si][p] = pp.val
		} else {
			delete(nx.shards[si], p)
		}
	}
	return nx, len(cloned)
}

// component is one connected component of the θ-graph together with its
// solved clique cover. Components are immutable once published: a
// refresh that dirties one replaces it wholesale, so clean components'
// subgraphs and cliques are shared across snapshots without copying.
type component struct {
	rep     trace.UserID   // smallest member — the cache key
	verts   []trace.UserID // sorted
	sub     *socialgraph.Graph
	cliques [][]trace.UserID // ExtractCliqueCover(sub), extraction order

	// friends is the per-vertex sorted adjacency of sub, materialized
	// lazily on first CloseFriends call. Components are immutable after
	// publication and shared across snapshots, so the cache is built at
	// most once per component lifetime and amortizes across refreshes
	// that leave the component clean.
	friendsOnce sync.Once
	friends     map[trace.UserID][]trace.UserID
}

// friendsOf returns u's sorted θ-graph neighbors within the component.
func (c *component) friendsOf(u trace.UserID) []trace.UserID {
	c.friendsOnce.Do(func() {
		c.friends = make(map[trace.UserID][]trace.UserID, len(c.verts))
		c.sub.ForEachEdge(func(a, b trace.UserID, _ float64) {
			c.friends[a] = append(c.friends[a], b)
			c.friends[b] = append(c.friends[b], a)
		})
		for _, ns := range c.friends {
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		}
	})
	return c.friends[u]
}

// Snapshot is an immutable view of the social state at one refresh:
// the pair index (θ), the θ-graph partitioned into connected components,
// and the cached clique cover. Selectors and the protocol controller's
// lock-free Associate path read snapshots without taking the engine's
// mutex; Index is safe for unlimited concurrent use.
type Snapshot struct {
	// Seq increases by one per published refresh.
	Seq uint64
	// BuiltAt is the wall-clock publication time.
	BuiltAt time.Time
	// Users is the vertex count of the θ-graph (every user ever seen).
	Users int
	// Edges is the θ-graph edge count.
	Edges int

	index *pairIndex
	comps map[trace.UserID]*component // rep -> component

	coverOnce sync.Once
	cover     [][]trace.UserID

	compOnce sync.Once
	compIdx  map[trace.UserID]*component
}

// Index returns θ(u,v); Snapshot satisfies core.SocialIndex.
func (s *Snapshot) Index(u, v trace.UserID) float64 { return s.index.Index(u, v) }

// NumComponents returns the number of connected components (isolated
// users count as singletons).
func (s *Snapshot) NumComponents() int { return len(s.comps) }

// Cover returns the clique cover of the whole θ-graph in canonical
// order (largest cliques first, ties lexicographic) — the same
// partition batch ExtractCliqueCover produces on the equivalent graph.
// The result is materialized lazily on first call and cached; callers
// must treat it (and its cliques) as read-only.
func (s *Snapshot) Cover() [][]trace.UserID {
	s.coverOnce.Do(func() {
		n := 0
		for _, c := range s.comps {
			n += len(c.cliques)
		}
		cover := make([][]trace.UserID, 0, n)
		for _, c := range s.comps {
			cover = append(cover, c.cliques...)
		}
		socialgraph.SortCover(cover)
		s.cover = cover
	})
	return s.cover
}

// Graph materializes the full θ-graph (O(V+E) — a debugging and
// equivalence-testing path, not a hot one). The result is a fresh copy.
func (s *Snapshot) Graph() *socialgraph.Graph {
	g := socialgraph.New()
	for _, c := range s.comps {
		for _, u := range c.verts {
			g.AddVertex(u)
		}
		c.sub.ForEachEdge(func(u, v trace.UserID, w float64) {
			g.AddEdge(u, v, w)
		})
	}
	return g
}

// Model materializes a society.Model equivalent to this snapshot's pair
// index: PairProb, Types, TypeMatrix and Alpha are populated (raw
// Encounters/CoLeaves tallies live in the learner, not the snapshot,
// and are left nil). O(pairs) — an interop path for batch consumers
// and persistence, not for per-decision use; Index on the snapshot
// itself is the hot path.
func (s *Snapshot) Model() *society.Model {
	n := 0
	for _, sh := range s.index.shards {
		n += len(sh)
	}
	pairProb := make(map[society.Pair]float64, n)
	for _, sh := range s.index.shards {
		for p, v := range sh {
			pairProb[p] = v
		}
	}
	types := make(map[trace.UserID]int, len(s.index.types))
	for u, t := range s.index.types {
		types[u] = t
	}
	matrix := make([][]float64, len(s.index.matrix))
	for i, row := range s.index.matrix {
		matrix[i] = append([]float64(nil), row...)
	}
	return &society.Model{
		PairProb:   pairProb,
		Types:      types,
		TypeMatrix: matrix,
		Alpha:      s.index.alpha,
	}
}

// CloseFriends returns u's close friends — the users v with
// θ(u,v) above the engine's edge threshold — as a sorted, read-only
// slice (nil for an unknown or isolated user). This is the selector's
// precomputed friend index: one O(1) map hit plus a cached adjacency
// list, instead of an O(|component|) Index rescan per candidate AP. The
// user→component index is built lazily on first use and cached for the
// snapshot's lifetime; per-component adjacency is shared across
// snapshots that leave the component clean.
func (s *Snapshot) CloseFriends(u trace.UserID) []trace.UserID {
	s.compOnce.Do(func() {
		n := 0
		for _, c := range s.comps {
			n += len(c.verts)
		}
		idx := make(map[trace.UserID]*component, n)
		for _, c := range s.comps {
			for _, v := range c.verts {
				idx[v] = c
			}
		}
		s.compIdx = idx
	})
	c := s.compIdx[u]
	if c == nil {
		return nil
	}
	return c.friendsOf(u)
}

// ComponentOf returns the sorted member list of the component containing
// u, or nil if u is unknown. O(components) — diagnostic use.
func (s *Snapshot) ComponentOf(u trace.UserID) []trace.UserID {
	for _, c := range s.comps {
		i := sort.Search(len(c.verts), func(i int) bool { return c.verts[i] >= u })
		if i < len(c.verts) && c.verts[i] == u {
			return c.verts
		}
	}
	return nil
}
