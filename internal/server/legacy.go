package server

// What builds before the binary codec wrote and this build only reads: the
// JSON pattern, labels, report, batch-chunk and cycle records (kinds 1, 2, 3,
// 6 and 4) and the JSON snapshot. They are the only way into a data directory
// such a build left behind; nothing here encodes, and nothing but the loader's
// branches for those kinds and for a snapshot that opens with '{' calls in.

import (
	"encoding/json"

	"crowdwifi/internal/wal"
)

// patternRecord is one AddPattern as kind 1 logged it.
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

// aggregateRecord is one cycle's outputs as kind 4 logged them.
type aggregateRecord struct {
	Fused       map[string][]LookupResult `json:"fused"`
	Reliability map[string]float64        `json:"reliability"`
}

// decodeLegacySnapshot decodes a JSON snapshot. Members it does not know —
// the "vehicles" index of still older builds — are ignored.
func decodeLegacySnapshot(data []byte) (snapshotState, error) {
	var state snapshotState
	err := json.Unmarshal(data, &state)
	return state, err
}

// applyLegacyRecordLocked replays one record of kind 1, 2, 3, 4 or 6.
// Requires s.mu held.
func (s *Store) applyLegacyRecordLocked(rec wal.Record) error {
	switch rec.Kind {
	case recPattern:
		var p patternRecord
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.applyPatternLocked(p.IdemKey, Pattern{ID: p.ID, Segment: p.Segment, APs: p.APs})
	case recLabels:
		var lr labelsRecord
		if err := json.Unmarshal(rec.Data, &lr); err != nil {
			return err
		}
		s.labels = append(s.labels, lr.Labels...)
		s.completeIdemLocked(lr.IdemKey, labelsResponse(len(lr.Labels)))
	case recLegacyReport:
		var rr reportRecord
		if err := json.Unmarshal(rec.Data, &rr); err != nil {
			return err
		}
		s.reports = append(s.reports, rr.Report)
		s.completeIdemLocked(rr.IdemKey, reportStored)
	case recLegacyBatch:
		var br batchRecord
		if err := json.Unmarshal(rec.Data, &br); err != nil {
			return err
		}
		for _, raw := range br.Reports {
			var rr reportRecord
			if err := json.Unmarshal(raw, &rr); err != nil {
				return err
			}
			s.reports = append(s.reports, rr.Report)
			s.completeIdemLocked(rr.IdemKey, reportStored)
		}
	case recLegacyCycle:
		var ar aggregateRecord
		if err := json.Unmarshal(rec.Data, &ar); err != nil {
			return err
		}
		s.view.Store(newView(ar.Fused, ar.Reliability))
	}
	return nil
}
