package server

// What builds before the binary codec wrote and this build only reads: the
// JSON pattern, labels, report, cycle, drop and batch-chunk records (kinds 1
// to 6) and the JSON snapshot. They are the only way into a data directory
// such a build left behind; nothing here writes to disk, and nothing but the
// loader's branches for those kinds and for a snapshot that opens with '{'
// calls in. Their reports are encoded into the entries the store holds, so a
// name longer than that layout carries refuses the record or the snapshot.

import (
	"encoding/json"
	"fmt"
)

// patternRecord is one pattern as kind 1 logged it.
type patternRecord struct {
	ID      int        `json:"id"`
	Segment string     `json:"segment"`
	APs     []APReport `json:"aps,omitempty"`
	IdemKey string     `json:"idemKey,omitempty"`
}

// labelsRecord is one label batch as kind 2 logged it.
type labelsRecord struct {
	Labels  []Label `json:"labels"`
	IdemKey string  `json:"idemKey,omitempty"`
}

// reportRecord is one AddReport as kind 3 logged it.
type reportRecord struct {
	Report  Report `json:"report"`
	IdemKey string `json:"idemKey,omitempty"`
}

// batchRecord is one chunk of a batch upload as kind 6 logged it; each
// element is a reportRecord.
type batchRecord struct {
	Reports []json.RawMessage `json:"reports"`
}

// dropRecord is one DropSegments as kind 5 logged it.
type dropRecord struct {
	Segments []string `json:"segments"`
}

// aggregateRecord is one cycle's outputs as kind 4 logged them.
type aggregateRecord struct {
	Fused       map[string][]LookupResult `json:"fused"`
	Reliability map[string]float64        `json:"reliability"`
}

// decodeLegacySnapshot decodes a JSON snapshot. Members it does not know —
// the "vehicles" index of still older builds — are ignored.
func decodeLegacySnapshot(data []byte) (snapshotState, error) {
	var state struct {
		snapshotState
		Reports []Report `json:"reports"`
	}
	if err := json.Unmarshal(data, &state); err != nil {
		return snapshotState{}, err
	}
	var entry []byte
	for _, r := range state.Reports {
		var err error
		if entry, err = appendReportEntry(entry[:0], "", r); err != nil {
			return snapshotState{}, err
		}
		state.snapshotState.Reports.add(entry)
	}
	return state.snapshotState, nil
}

// legacyReports is a report record of this build's kind holding items.
func legacyReports(items []BatchItem) (record, error) {
	rec := record{kind: recReports, data: appendU32(nil, len(items)), keys: make([]string, len(items))}
	for i, it := range items {
		var err error
		if rec.data, err = appendReportEntry(rec.data, it.Key, it.Report); err != nil {
			return record{}, fmt.Errorf("report %d: %w", i, err)
		}
		rec.keys[i] = it.Key
	}
	return rec, nil
}

// decodeLegacyRecord decodes a record of kind 1 to 6 into the value of the
// kind this build writes in its place, so that replay checks and applies it
// as it does that kind.
func decodeLegacyRecord(kind byte, data []byte) (record, error) {
	switch kind {
	case recPattern:
		var p patternRecord
		err := json.Unmarshal(data, &p)
		return record{kind: recPatternEntry, key: p.IdemKey, pattern: Pattern{ID: p.ID, Segment: p.Segment, APs: p.APs}}, err
	case recLabels:
		var lr labelsRecord
		err := json.Unmarshal(data, &lr)
		return record{kind: recLabelBlock, key: lr.IdemKey, labels: lr.Labels}, err
	case recLegacyReport:
		var rr reportRecord
		if err := json.Unmarshal(data, &rr); err != nil {
			return record{}, err
		}
		return legacyReports([]BatchItem{{Key: rr.IdemKey, Report: rr.Report}})
	case recLegacyBatch:
		var br batchRecord
		err := json.Unmarshal(data, &br)
		items := make([]BatchItem, len(br.Reports))
		for i := 0; i < len(br.Reports) && err == nil; i++ {
			var rr reportRecord
			err = json.Unmarshal(br.Reports[i], &rr)
			items[i] = BatchItem{Key: rr.IdemKey, Report: rr.Report}
		}
		if err != nil {
			return record{}, err
		}
		return legacyReports(items)
	case recLegacyCycle:
		var ar aggregateRecord
		err := json.Unmarshal(data, &ar)
		return record{kind: recCycle, view: newView(ar.Fused, ar.Reliability)}, err
	default: // recDrop
		var dr dropRecord
		err := json.Unmarshal(data, &dr)
		return record{kind: recDropBlock, segments: dr.Segments}, err
	}
}
