// This file: per-shard, per-epoch journal files. A sharded fleet gives every
// shard its own journal, and every lease grant (epoch) a fresh file: a
// zombie worker that lost the lease may still hold its old epoch's file
// open, so the new owner never appends to a predecessor's file. Instead it
// replays and merges every file the shard has accumulated, creates the new
// epoch file from the merged state (Create), recovers, and deletes the old
// files.

package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ShardFile returns the journal path for a shard owned under an epoch.
func ShardFile(dir string, shard int, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d-e%d.journal", shard, epoch))
}

// ShardFiles lists every epoch journal present for a shard, sorted by name.
// Multiple files mean prior owners died (or raced a Compact) before their
// epoch was fully superseded.
func ShardFiles(dir string, shard int) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%04d-e*.journal", shard)))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}

// ReplayFile replays a journal image from disk without opening it for
// appending. Missing files yield an empty state: a crash can interleave
// with file deletion during handoff.
func ReplayFile(path string) (*State, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &State{AckedThrough: map[string]int64{}, NextSeq: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Replay(f)
}

// MergeStates folds the replayed states of a shard's epoch files into one:
// acked high-waters take the per-rule maximum, and pending intents are
// deduplicated by (rule, at) keeping the highest attempt count, dropping
// intents whose instant the merged high-water already proves committed.
// Sequence numbers are meaningless across files, so the merged intents are
// renumbered 1..n in replay order and NextSeq follows them.
func MergeStates(states ...*State) *State {
	out := &State{AckedThrough: map[string]int64{}, NextSeq: 1}
	type key struct {
		rule string
		at   int64
	}
	seen := map[key]int{} // -> index into out.Pending
	for _, st := range states {
		if st == nil {
			continue
		}
		for rule, hi := range st.AckedThrough {
			if hi > out.AckedThrough[rule] {
				out.AckedThrough[rule] = hi
			}
		}
		for _, p := range st.Pending {
			k := key{lowerKey(p.Rule), p.At}
			if i, ok := seen[k]; ok {
				if p.Attempts > out.Pending[i].Attempts {
					out.Pending[i].Attempts = p.Attempts
				}
				continue
			}
			seen[k] = len(out.Pending)
			out.Pending = append(out.Pending, p)
		}
		out.Records += st.Records
	}
	kept := out.Pending[:0]
	for _, p := range out.Pending {
		if p.At <= out.AckedThrough[lowerKey(p.Rule)] {
			continue
		}
		kept = append(kept, p)
	}
	out.Pending = kept
	// Deterministic replay order: by instant, then rule.
	sort.SliceStable(out.Pending, func(i, j int) bool {
		if out.Pending[i].At != out.Pending[j].At {
			return out.Pending[i].At < out.Pending[j].At
		}
		return lowerKey(out.Pending[i].Rule) < lowerKey(out.Pending[j].Rule)
	})
	for i := range out.Pending {
		out.Pending[i].Seq = uint64(i + 1)
	}
	out.NextSeq = uint64(len(out.Pending) + 1)
	return out
}
