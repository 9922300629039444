package society

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestFriendListsMatchIndex: CloseFriends(u) must be exactly the users v
// with Index(u,v) above the threshold, sorted — including the dense
// type pairs whose α·T prior alone clears it, users with pair history
// but no type, and typed users with no history.
func TestFriendListsMatchIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var users []trace.UserID
	for i := 0; i < 40; i++ {
		users = append(users, trace.UserID(fmt.Sprintf("u%02d", i)))
	}
	m := &Model{
		PairProb: map[Pair]float64{},
		Types:    map[trace.UserID]int{},
		// α·T: 0.5·0.8 = 0.4 clears 0.3 for the (0,1) pair only.
		TypeMatrix: [][]float64{{0.2, 0.8, 0.1}, {0.8, 0.3, 0.0}, {0.1, 0.0, 0.5}},
		Alpha:      0.5,
	}
	for i, u := range users {
		if i%5 != 0 { // every fifth user is untyped
			m.Types[u] = rng.Intn(3)
		}
	}
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			if rng.Float64() < 0.2 {
				m.PairProb[MakePair(users[i], users[j])] = rng.Float64() * 0.5
			}
		}
	}
	const threshold = 0.3
	f := m.FriendLists(threshold)
	if f.FriendThreshold() != threshold {
		t.Fatalf("threshold = %v", f.FriendThreshold())
	}
	for _, u := range append(users, "stranger") {
		var want []trace.UserID
		for _, v := range users {
			if v != u && m.Index(u, v) > threshold {
				want = append(want, v)
			}
		}
		if got := f.CloseFriends(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("CloseFriends(%s) = %v, want %v", u, got, want)
		}
	}
}
