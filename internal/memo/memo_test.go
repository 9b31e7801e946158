package memo

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// op is one Do on a fresh key or a stored one; when it misses, its start
// finishes the call with (key, size, err) on the calling goroutine.
type op struct {
	key  string
	size int64
	err  error
}

// TestStore pins what a sequence of calls leaves in the store: LRU order,
// the byte budget, and which results are never stored.
func TestStore(t *testing.T) {
	cases := []struct {
		name          string
		capacity      int64
		ops           []op
		want          []Status
		wantEntries   int
		wantBytes     int64
		wantEvictions uint64
	}{
		{
			// a is touched after c, so d evicts b, the least recently
			// used; b's return then evicts c.
			name:        "lru order",
			capacity:    30,
			ops:         []op{{"a", 10, nil}, {"b", 10, nil}, {"c", 10, nil}, {"a", 10, nil}, {"d", 10, nil}, {"a", 10, nil}, {"b", 10, nil}, {"d", 10, nil}},
			want:        []Status{Miss, Miss, Miss, Hit, Miss, Hit, Miss, Hit},
			wantEntries: 3, wantBytes: 30, wantEvictions: 2,
		},
		{
			name:        "oversized entry skipped",
			capacity:    30,
			ops:         []op{{"a", 10, nil}, {"big", 31, nil}, {"a", 10, nil}, {"big", 31, nil}},
			want:        []Status{Miss, Miss, Hit, Miss},
			wantEntries: 1, wantBytes: 10,
		},
		{
			name:     "zero budget stores nothing",
			capacity: 0,
			ops:      []op{{"a", 0, nil}, {"a", 10, nil}},
			want:     []Status{Miss, Miss},
		},
		{
			name:     "negative budget stores nothing",
			capacity: -1,
			ops:      []op{{"a", 10, nil}, {"a", 10, nil}},
			want:     []Status{Miss, Miss},
		},
		{
			name:        "errors never stored",
			capacity:    30,
			ops:         []op{{"a", 10, errBoom}, {"a", 10, nil}, {"a", 10, nil}},
			want:        []Status{Miss, Miss, Hit},
			wantEntries: 1, wantBytes: 10,
		},
		{
			name:        "uncacheable never stored",
			capacity:    30,
			ops:         []op{{"a", Uncacheable, nil}, {"a", 10, nil}, {"a", 10, nil}},
			want:        []Status{Miss, Miss, Hit},
			wantEntries: 1, wantBytes: 10,
		},
		{
			// 7+11+13 = 31 resident; adding 80 evicts a and b (111 → 93).
			name:        "bytes are the sum of entry sizes",
			capacity:    100,
			ops:         []op{{"a", 7, nil}, {"b", 11, nil}, {"c", 13, nil}, {"d", 80, nil}},
			want:        []Status{Miss, Miss, Miss, Miss},
			wantEntries: 2, wantBytes: 93, wantEvictions: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](tc.capacity)
			var hits, misses uint64
			for i, o := range tc.ops {
				v, st, err := c.Do(context.Background(), o.key, func(call *Call[string]) {
					call.Finish(o.key, o.size, o.err)
				})
				if st != tc.want[i] {
					t.Errorf("op %d (%s): status %d, want %d", i, o.key, st, tc.want[i])
				}
				if st == Hit {
					hits++
				} else {
					misses++
				}
				if st == Miss && o.err != nil {
					if err != o.err {
						t.Errorf("op %d: err %v, want %v", i, err, o.err)
					}
					continue
				}
				if err != nil || v != o.key {
					t.Errorf("op %d: got (%q, %v), want (%q, nil)", i, v, err, o.key)
				}
			}
			got := c.Stats()
			want := Stats{Hits: hits, Misses: misses, Evictions: tc.wantEvictions,
				Entries: tc.wantEntries, Bytes: tc.wantBytes, Capacity: tc.capacity}
			if got != want {
				t.Errorf("stats %+v, want %+v", got, want)
			}
		})
	}
}

// TestCoalesce holds one call in flight while followers join it: exactly
// one computation runs, a follower whose context is cancelled returns
// ctx.Err() at once, and every other follower receives the leader's
// result — stored or not, value or error.
func TestCoalesce(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		size     int64
		err      error
		next     Status // how a later call for the key is served
	}{
		{"stored", 1 << 10, 10, nil, Hit},
		{"zero budget", 0, 10, nil, Miss},
		{"uncacheable", 1 << 10, Uncacheable, nil, Miss},
		{"error", 1 << 10, 10, errBoom, Miss},
	}
	const followers = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](tc.capacity)
			release := make(chan struct{})
			var starts atomic.Int32
			start := func(call *Call[int]) {
				starts.Add(1)
				<-release
				call.Finish(42, tc.size, tc.err)
			}

			type result struct {
				v   int
				st  Status
				err error
			}
			results := make(chan result, followers+1)
			do := func(ctx context.Context) {
				v, st, err := c.Do(ctx, "k", start)
				results <- result{v, st, err}
			}
			go do(context.Background())
			waitFor(t, func() bool { return c.Stats().Inflight == 1 })
			for i := 0; i < followers; i++ {
				go do(context.Background())
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancelled := make(chan error, 1)
			go func() {
				_, _, err := c.Do(ctx, "k", start)
				cancelled <- err
			}()
			waitFor(t, func() bool { return c.Stats().Dedups == followers+1 })
			cancel()
			if err := <-cancelled; err != context.Canceled {
				t.Errorf("cancelled follower: err %v, want context.Canceled", err)
			}

			close(release)
			var leaders, dedups int
			for i := 0; i < followers+1; i++ {
				r := <-results
				switch r.st {
				case Miss:
					leaders++
				case Dedup:
					dedups++
				}
				if r.err != tc.err || (tc.err == nil && r.v != 42) {
					t.Errorf("%v caller got (%d, %v), want (42, %v)", r.st, r.v, r.err, tc.err)
				}
			}
			if leaders != 1 || dedups != followers || starts.Load() != 1 {
				t.Errorf("%d leaders, %d dedups and %d computations; want 1, %d and 1",
					leaders, dedups, starts.Load(), followers)
			}
			_, st, _ := c.Do(context.Background(), "k", func(call *Call[int]) { call.Finish(7, 1, nil) })
			if st != tc.next {
				t.Errorf("later call: status %d, want %d", st, tc.next)
			}
		})
	}
}

// TestClose fails the call in flight, makes later calls (stored keys
// included) return the close error, and ignores the late Finish.
func TestClose(t *testing.T) {
	c := New[int](1 << 10)
	c.Do(context.Background(), "stored", func(call *Call[int]) { call.Finish(1, 1, nil) })

	var pending *Call[int]
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(call *Call[int]) { pending = call })
		errc <- err
	}()
	waitFor(t, func() bool { return c.Stats().Inflight == 1 })
	errClosed := errors.New("closed")
	c.Close(errClosed)
	if err := <-errc; err != errClosed {
		t.Errorf("in-flight caller: err %v, want the close error", err)
	}
	pending.Finish(2, 1, nil) // the worker that outlived Close
	for _, key := range []string{"stored", "k"} {
		if _, _, err := c.Do(context.Background(), key, nil); err != errClosed {
			t.Errorf("Do(%q) after Close: err %v, want the close error", key, err)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Inflight != 0 {
		t.Errorf("after Close: %d entries, %d in flight; want 1 and 0", st.Entries, st.Inflight)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
