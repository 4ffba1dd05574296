package cluster

import (
	"net/netip"
	"slices"
	"sort"
	"time"

	"botscope/internal/bincodec"
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/stats"
	"botscope/internal/stream"
)

// ShardSnapshot is one shard's contribution to a merged live view: the
// shard's identity, how many ingest entries it has applied, and its
// stream.Snapshot. The snapshot's scalar half (Ingested, time bounds,
// Intervals, Durations, Load) covers the *global* stream — every shard
// replicates it from the tick feed — while the keyed half (Protocols,
// FamilyProtocol, Daily, Collaborations) covers only the shard's target
// partition.
type ShardSnapshot struct {
	ShardID int
	Applied uint64
	Snap    stream.Snapshot
}

// walkSnapshot walks a msgSnapResp payload. Every float crosses as its
// IEEE-754 bits and every time as UTC unix-nanoseconds, so the frontend
// reconstructs values bit-exactly.
func walkSnapshot(c *bincodec.Coder, s *ShardSnapshot) {
	bincodec.Int(c, &s.ShardID)
	c.Uvarint(&s.Applied)
	sn := &s.Snap

	bincodec.Int(c, &sn.Ingested)
	c.Time(&sn.FirstStart)
	c.Time(&sn.LastStart)
	bincodec.Int(c, &sn.ActiveAttacks)

	n := bincodec.Slice(c, &sn.Protocols, 2)
	for i := 0; i < n && c.Err() == nil; i++ {
		p := &sn.Protocols[i]
		bincodec.Int(c, &p.Category)
		bincodec.Int(c, &p.Count)
	}

	n = bincodec.Slice(c, &sn.FamilyProtocol, 3)
	for i := 0; i < n && c.Err() == nil; i++ {
		fp := &sn.FamilyProtocol[i]
		bincodec.Int(c, &fp.Category)
		bincodec.String(c, &fp.Family)
		bincodec.Int(c, &fp.Count)
	}

	walkDaily(c, &sn.Daily)
	walkSummary(c, &sn.Intervals.Summary)
	c.F64(&sn.Intervals.SimultaneousFrac)
	c.F64(&sn.Intervals.ExactZeroFrac)
	walkSummary(c, &sn.Durations.Summary)
	c.F64(&sn.Durations.FracUnder4h)
	c.F64(&sn.Durations.FracUnder60s)
	bincodec.Int(c, &sn.Load.Peak)
	c.Time(&sn.Load.PeakTime)
	c.F64(&sn.Load.TimeWeightedMean)
	walkCollab(c, &sn.Collaborations)
}

func walkDaily(c *bincodec.Coder, d *core.DailyStats) {
	c.F64(&d.Average)
	bincodec.Int(c, &d.Max)
	c.Time(&d.MaxDay)
	bincodec.String(c, &d.MaxDominantFamily)
	n := bincodec.Slice(c, &d.Days, 3)
	for i := 0; i < n && c.Err() == nil; i++ {
		dc := &d.Days[i]
		c.Time(&dc.Day)
		bincodec.Int(c, &dc.Count)
		walkCounts(c, &dc.ByFamily)
	}
}

func walkSummary(c *bincodec.Coder, s *stats.Summary) {
	bincodec.Int(c, &s.N)
	c.F64(&s.Mean)
	c.F64(&s.Median)
	c.F64(&s.StdDev)
	c.F64(&s.Min)
	c.F64(&s.Max)
	c.F64(&s.P80)
	c.F64(&s.P95)
}

func walkCollab(c *bincodec.Coder, cs *stream.CollabSummary) {
	bincodec.Int(c, &cs.TotalIntra)
	bincodec.Int(c, &cs.TotalInter)
	c.F64(&cs.MeanBotnets)
	walkCounts(c, &cs.Intra)
	walkCounts(c, &cs.Inter)
	walkCounts(c, &cs.PairCounts)

	n := bincodec.Slice(c, &cs.Recent, 6)
	for i := 0; i < n && c.Err() == nil; i++ {
		cand := &cs.Recent[i]
		c.Str(&cand.Target)
		c.Time(&cand.Start)
		nf := bincodec.Slice(c, &cand.Families, 1)
		for j := 0; j < nf && c.Err() == nil; j++ {
			bincodec.String(c, &cand.Families[j])
		}
		bincodec.Int(c, &cand.Botnets)
		bincodec.Int(c, &cand.Attacks)
		c.Uvarint(&cand.Seq)
		c.Bool(&cand.Open)
	}
	bincodec.Int(c, &cs.OpenWindows)
	bincodec.Int(c, &cs.Qualified)
	bincodec.Int(c, &cs.BotnetTotal)
}

// walkCounts walks a string-keyed count map (family counts, collaboration
// pair counts) in sorted-key order, so the encoding is deterministic
// regardless of map iteration. Decoding always yields a non-nil map.
func walkCounts[K ~string](c *bincodec.Coder, m *map[K]int) {
	keys := make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := len(keys)
	c.Count(&n, 2)
	if c.Decoding() {
		*m = make(map[K]int, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		var v int
		if !c.Decoding() {
			k, v = keys[i], (*m)[keys[i]]
		}
		bincodec.String(c, &k)
		bincodec.Int(c, &v)
		if c.Decoding() {
			(*m)[k] = v
		}
	}
}

// maxRecent mirrors internal/stream's bound on the live candidate ring.
const maxRecent = 32

// MergeSnapshots reassembles a single-process stream.Snapshot from shard
// partials. The scalar half comes verbatim from the most advanced shard
// (highest Ingested, ties to the lowest shard id) — every up-to-date shard
// replicated the identical tick stream, so their scalars are bit-identical
// and any one of them is the global truth. The keyed half is summed across
// the disjoint target partitions and reordered with exactly the tie rules
// internal/stream applies, so the merged snapshot is byte-identical to the
// one a single analyzer over the whole feed would produce, for any shard
// count.
//
// Snapshots must be sorted by ShardID (the frontend's fan-out preserves
// that order). An empty input or an all-empty cluster yields the zero
// snapshot, matching an analyzer that has ingested nothing.
func MergeSnapshots(snaps []*ShardSnapshot) stream.Snapshot {
	var out stream.Snapshot
	var src *ShardSnapshot
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if src == nil || s.Snap.Ingested > src.Snap.Ingested {
			src = s
		}
	}
	if src == nil || src.Snap.Ingested == 0 {
		return out
	}

	// Global scalar statistics: verbatim from the most advanced shard.
	out.Ingested = src.Snap.Ingested
	out.FirstStart = src.Snap.FirstStart
	out.LastStart = src.Snap.LastStart
	out.ActiveAttacks = src.Snap.ActiveAttacks
	out.Intervals = src.Snap.Intervals
	out.Durations = src.Snap.Durations
	out.Load = src.Snap.Load

	out.Protocols = mergeProtocols(snaps)
	out.FamilyProtocol = mergeFamilyProtocol(snaps)
	out.Daily = mergeDaily(snaps)
	out.Collaborations = mergeCollab(snaps)
	return out
}

// mergeProtocols sums the per-category counts and rebuilds the breakdown
// with core.ProtocolBreakdown's ordering: count descending, ties by
// category display order.
func mergeProtocols(snaps []*ShardSnapshot) []core.ProtocolCount {
	counts := make(map[dataset.Category]int)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, p := range s.Snap.Protocols {
			counts[p.Category] += p.Count
		}
	}
	out := make([]core.ProtocolCount, 0, len(counts))
	for _, c := range dataset.Categories {
		if counts[c] > 0 {
			out = append(out, core.ProtocolCount{Category: c, Count: counts[c]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// mergeFamilyProtocol sums the per-(category, family) counts and rebuilds
// the Table II ordering: categories in display order, families
// alphabetically inside each.
func mergeFamilyProtocol(snaps []*ShardSnapshot) []core.FamilyProtocolRow {
	counts := make(map[dataset.Category]map[dataset.Family]int)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, fp := range s.Snap.FamilyProtocol {
			m := counts[fp.Category]
			if m == nil {
				m = make(map[dataset.Family]int)
				counts[fp.Category] = m
			}
			m[fp.Family] += fp.Count
		}
	}
	var out []core.FamilyProtocolRow
	for _, c := range dataset.Categories {
		fams := make([]dataset.Family, 0, len(counts[c]))
		for f := range counts[c] {
			fams = append(fams, f)
		}
		sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
		for _, f := range fams {
			out = append(out, core.FamilyProtocolRow{Category: c, Family: f, Count: counts[c][f]})
		}
	}
	return out
}

// mergeDaily sums the day buckets by calendar day and recomputes the
// headline statistics with the Analyzer's exact tie rules (earliest peak
// day wins; dominant family by count, ties alphabetically; the average
// spans first day through last day inclusive).
func mergeDaily(snaps []*ShardSnapshot) core.DailyStats {
	type bucket struct {
		count    int
		byFamily map[dataset.Family]int
	}
	days := make(map[int64]*bucket)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, dc := range s.Snap.Daily.Days {
			key := dc.Day.UnixNano()
			b := days[key]
			if b == nil {
				b = &bucket{byFamily: make(map[dataset.Family]int)}
				days[key] = b
			}
			b.count += dc.Count
			for f, n := range dc.ByFamily {
				b.byFamily[f] += n
			}
		}
	}

	keys := make([]int64, 0, len(days))
	for k := range days {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	st := core.DailyStats{Days: make([]core.DailyCount, 0, len(keys))}
	total := 0
	for _, k := range keys {
		b := days[k]
		dc := core.DailyCount{
			Day:      time.Unix(0, k).UTC(),
			Count:    b.count,
			ByFamily: make(map[dataset.Family]int, len(b.byFamily)),
		}
		for f, n := range b.byFamily {
			dc.ByFamily[f] = n
		}
		st.Days = append(st.Days, dc)
		total += b.count
		if b.count > st.Max {
			st.Max = b.count
			st.MaxDay = dc.Day
			best, bestN := dataset.Family(""), 0
			for f, n := range b.byFamily {
				if n > bestN || (n == bestN && f < best) {
					best, bestN = f, n
				}
			}
			st.MaxDominantFamily = best
		}
	}
	if len(keys) > 0 {
		span := int(time.Unix(0, keys[len(keys)-1]).UTC().Sub(time.Unix(0, keys[0]).UTC()).Hours()/24) + 1
		st.Average = float64(total) / float64(span)
	}
	return st
}

// mergeCollab sums the Table VI counters over the disjoint target
// partitions and interleaves the candidate rings back into the exact
// order a single tracker emits: closed candidates by global sequence of
// their window's first attack (finalization follows window-creation
// order, which is seq order), then still-open candidates by (start,
// target address) — the snapshot's pending sort.
func mergeCollab(snaps []*ShardSnapshot) stream.CollabSummary {
	out := stream.CollabSummary{
		Intra:      make(map[dataset.Family]int),
		Inter:      make(map[dataset.Family]int),
		PairCounts: make(map[string]int),
	}
	var closed, open []stream.CollabCandidate
	for _, s := range snaps {
		if s == nil {
			continue
		}
		c := &s.Snap.Collaborations
		out.TotalIntra += c.TotalIntra
		out.TotalInter += c.TotalInter
		out.OpenWindows += c.OpenWindows
		out.Qualified += c.Qualified
		out.BotnetTotal += c.BotnetTotal
		for f, n := range c.Intra {
			out.Intra[f] += n
		}
		for f, n := range c.Inter {
			out.Inter[f] += n
		}
		for p, n := range c.PairCounts {
			out.PairCounts[p] += n
		}
		for _, cand := range c.Recent {
			if cand.Open {
				open = append(open, cand)
			} else {
				closed = append(closed, cand)
			}
		}
	}
	sort.Slice(closed, func(i, j int) bool { return closed[i].Seq < closed[j].Seq })
	sort.Slice(open, func(i, j int) bool {
		if !open[i].Start.Equal(open[j].Start) {
			return open[i].Start.Before(open[j].Start)
		}
		return lessTarget(open[i].Target, open[j].Target)
	})
	out.Recent = append(closed, open...)
	if len(out.Recent) > maxRecent {
		out.Recent = out.Recent[len(out.Recent)-maxRecent:]
	}
	if len(out.Recent) == 0 {
		// A single-process snapshot reports null, not [], when no
		// candidates exist; keep the merged JSON identical.
		out.Recent = nil
	}
	if out.Qualified > 0 {
		out.MeanBotnets = float64(out.BotnetTotal) / float64(out.Qualified)
	}
	return out
}

// lessTarget orders candidate targets the way the tracker's pending sort
// does — by address value, not lexically ("9.0.0.1" sorts before
// "10.0.0.1"). Unparseable targets fall back to string order.
func lessTarget(a, b string) bool {
	ia, errA := netip.ParseAddr(a)
	ib, errB := netip.ParseAddr(b)
	if errA != nil || errB != nil {
		return a < b
	}
	return ia.Less(ib)
}
