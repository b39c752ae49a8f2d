package failures

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// AnonymizeOptions controls what an anonymization pass hides. The paper's
// scope section notes the study was constrained by "business sensitivity";
// this transform is what a center would run before sharing a log like the
// one this repository reproduces.
type AnonymizeOptions struct {
	// Key seeds the deterministic node-identifier permutation: the same
	// key always produces the same mapping, so incremental log shares
	// stay consistent, while different keys are unlinkable.
	Key string
	// DropSoftwareCauses removes the root-locus annotations (often the
	// most sensitive free-text field in real logs).
	DropSoftwareCauses bool
	// CoarsenTimes truncates occurrence times to whole days, hiding
	// shift-level operational detail while preserving the monthly and
	// seasonal analyses.
	CoarsenTimes bool
}

// Anonymize returns a copy of the log with node identities remapped by a
// keyed pseudorandom permutation and optional field scrubbing. The
// mapping is one-to-one, so per-node recurrence analyses (Figure 4)
// survive; rack topology is deliberately destroyed (pseudonyms carry no
// position), and node identities cannot be recovered without the key.
func Anonymize(log *Log, opts AnonymizeOptions) (*Log, error) {
	if opts.Key == "" {
		return nil, fmt.Errorf("failures: anonymization requires a non-empty key")
	}
	// Collect the distinct node IDs, deterministically ordered.
	nodeSet := make(map[string]bool)
	for _, r := range log.records {
		if r.Node != "" {
			nodeSet[r.Node] = true
		}
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	// Keyed order: sort nodes by their HMAC digests, then assign fresh
	// sequential pseudonyms. One-to-one by construction (ties broken by
	// original name inside the sort's stability guarantee).
	mac := func(s string) uint64 {
		h := hmac.New(sha256.New, []byte(opts.Key))
		h.Write([]byte(s))
		return binary.BigEndian.Uint64(h.Sum(nil))
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		hi, hj := mac(nodes[i]), mac(nodes[j])
		if hi != hj {
			return hi < hj
		}
		return nodes[i] < nodes[j]
	})
	mapping := make(map[string]string, len(nodes))
	for i, n := range nodes {
		mapping[n] = fmt.Sprintf("x%04d", i)
	}

	out := make([]Failure, len(log.records))
	for i, r := range log.records {
		rr := r
		if rr.Node != "" {
			rr.Node = mapping[rr.Node]
		}
		if opts.DropSoftwareCauses {
			rr.SoftwareCause = 0
		}
		if opts.CoarsenTimes {
			rr.Time = rr.Time.Truncate(24 * 3600e9)
		}
		rr.GPUs = append([]int(nil), r.GPUs...)
		out[i] = rr
	}
	anon := &Log{system: log.system, records: out}
	SortByTime(anon.records)
	return anon, nil
}
