package society

import (
	"sort"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// FriendLists is a Model's θ-graph at one threshold, stored as sorted
// per-user adjacency lists: CloseFriends(u) is exactly the users v with
// Index(u,v) > threshold. It is built once and never changes, so it is
// safe for unlimited concurrent reads. It satisfies core.FriendIndex.
type FriendLists struct {
	model     *Model
	threshold float64
	lists     map[trace.UserID][]trace.UserID
}

// FriendLists builds the close-friend lists at threshold. Candidates
// are the PairProb partners plus, for every type pair whose α·T term
// alone clears the threshold, all typed users of the two types; each
// candidate is kept only if Index clears the threshold, so the lists
// agree with Index bit for bit. The model must not change afterwards.
func (m *Model) FriendLists(threshold float64) *FriendLists {
	f := &FriendLists{model: m, threshold: threshold, lists: make(map[trace.UserID][]trace.UserID)}
	add := func(u, v trace.UserID) {
		if u != v && m.Index(u, v) > threshold {
			f.lists[u] = append(f.lists[u], v)
		}
	}
	for p := range m.PairProb {
		add(p.A, p.B)
		add(p.B, p.A)
	}
	byType := make([][]trace.UserID, len(m.TypeMatrix))
	for u, t := range m.Types {
		if t >= 0 && t < len(byType) {
			byType[t] = append(byType[t], u)
		}
	}
	for ti, row := range m.TypeMatrix {
		for tj := range row {
			if ti >= len(byType) || tj >= len(byType) || !(m.Alpha*row[tj] > threshold) {
				continue
			}
			for _, u := range byType[ti] {
				for _, v := range byType[tj] {
					add(u, v)
				}
			}
		}
	}
	for u, fs := range f.lists {
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
		// A PairProb partner of a dense type pair is a candidate twice.
		out := fs[:0]
		for i, v := range fs {
			if i == 0 || v != fs[i-1] {
				out = append(out, v)
			}
		}
		f.lists[u] = out
	}
	return f
}

// Index returns the model's θ(u,v).
func (f *FriendLists) Index(u, v trace.UserID) float64 { return f.model.Index(u, v) }

// CloseFriends returns u's close friends, sorted and read-only.
func (f *FriendLists) CloseFriends(u trace.UserID) []trace.UserID { return f.lists[u] }

// FriendThreshold returns the θ cut the lists were built at.
func (f *FriendLists) FriendThreshold() float64 { return f.threshold }
