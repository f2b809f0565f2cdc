package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// referencePath holds the recorded output digests, by workload and seed,
// relative to the repository root.
const referencePath = "perfbench/reference.json"

// entry is the recorded output of one operation: a digest of its rendered
// tables or results, the exact simulator event count behind them, and for
// membank one per-(configuration, pattern) average.
type entry struct {
	SHA256    string  `json:"sha256,omitempty"`
	SimEvents uint64  `json:"sim_events,omitempty"`
	Value     float64 `json:"value,omitempty"`
}

// digest maps operation names to their recorded output.
type digest map[string]entry

// diff lists, in name order, every operation of want that got missing or
// different in got.
func (want digest) diff(got digest) []string {
	var names []string
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []string
	for _, k := range names {
		g, ok := got[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s (missing)", k))
		case g != want[k]:
			out = append(out, fmt.Sprintf("%s %+v (want %+v)", k, g, want[k]))
		}
	}
	return out
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// reference is the file of recorded digests: workload → seed → digest.
type reference map[string]map[string]digest

func loadReference() (reference, error) {
	b, err := os.ReadFile(referencePath)
	if errors.Is(err, fs.ErrNotExist) {
		return reference{}, nil
	}
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath, err)
	}
	return r, nil
}

func (r reference) get(workload, seed string) (digest, bool) {
	d, ok := r[workload][seed]
	return d, ok
}

func (r reference) set(workload, seed string, d digest) {
	if r[workload] == nil {
		r[workload] = map[string]digest{}
	}
	r[workload][seed] = d
}

func (r reference) save() error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(b, '\n'), 0o644)
}
