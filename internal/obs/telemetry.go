package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Record is the telemetry for one experiment sweep point: run identity,
// a metrics snapshot, and the captured spans. Records are what
// ccexperiment -telemetry serialises as JSON lines.
type Record struct {
	Experiment string   `json:"experiment"`
	Point      string   `json:"point"`
	Seed       int64    `json:"seed"`
	Metrics    []Sample `json:"-"`
	Spans      []Span   `json:"-"`
	Dropped    uint64   `json:"dropped"`
}

// Collect builds a Record from a Context after its simulation has run:
// a sorted metrics snapshot plus the span log in creation order. The
// output depends only on simulation behaviour, so same-seed runs yield
// byte-identical encodings.
func Collect(c *Context, experiment, point string) *Record {
	if c == nil {
		return nil
	}
	return &Record{
		Experiment: experiment,
		Point:      point,
		Seed:       c.Sim.Seed(),
		Metrics:    c.Registry.Snapshot(),
		Spans:      c.Tracer.Spans(),
		Dropped:    c.Tracer.Dropped(),
	}
}

// MarshalJSON renders a FlowID as a fixed-width hex string: flows are
// hashes, not quantities, and hex keeps eyeballing/grepping two JSONL
// files sane.
func (f FlowID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + fmt.Sprintf("%016x", uint64(f)) + `"`), nil
}

// UnmarshalJSON parses the hex form written by MarshalJSON.
func (f *FlowID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("obs: bad flow id %q: %v", s, err)
	}
	*f = FlowID(v)
	return nil
}

// jsonl line envelopes. A record encodes as one "run" header line,
// then one "metric" line per sample (sorted by name — Snapshot order),
// then one "span" line per span (creation order). Line-per-entity keeps
// files greppable and streamable; the header's counts let a reader
// validate it got a complete record.
type runLine struct {
	Type       string `json:"type"` // "run"
	Experiment string `json:"experiment"`
	Point      string `json:"point"`
	Seed       int64  `json:"seed"`
	Metrics    int    `json:"metrics"`
	Spans      int    `json:"spans"`
	Dropped    uint64 `json:"dropped"`
}

type metricLine struct {
	Type string `json:"type"` // "metric"
	Sample
}

type spanLine struct {
	Type string `json:"type"` // "span"
	Span
}

// Encode writes r as JSON lines. Field order and float formatting come
// from encoding/json (stable across runs), so identical records encode
// to identical bytes.
func (r *Record) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(runLine{
		Type: "run", Experiment: r.Experiment, Point: r.Point, Seed: r.Seed,
		Metrics: len(r.Metrics), Spans: len(r.Spans), Dropped: r.Dropped,
	}); err != nil {
		return err
	}
	for _, m := range r.Metrics {
		if err := enc.Encode(metricLine{Type: "metric", Sample: m}); err != nil {
			return err
		}
	}
	for _, s := range r.Spans {
		if err := enc.Encode(spanLine{Type: "span", Span: s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeAll writes each record in order.
func EncodeAll(w io.Writer, recs []*Record) error {
	for _, r := range recs {
		if r == nil {
			continue
		}
		if err := r.Encode(w); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads back every record from a JSONL stream written by Encode,
// validating the per-record counts declared in each "run" header.
func Decode(r io.Reader) ([]*Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []*Record
	var cur *Record
	var wantMetrics, wantSpans int
	line := 0
	checkComplete := func() error {
		if cur == nil {
			return nil
		}
		if len(cur.Metrics) != wantMetrics {
			return fmt.Errorf("record %s/%s: %d metric lines, header declared %d",
				cur.Experiment, cur.Point, len(cur.Metrics), wantMetrics)
		}
		if len(cur.Spans) != wantSpans {
			return fmt.Errorf("record %s/%s: %d span lines, header declared %d",
				cur.Experiment, cur.Point, len(cur.Spans), wantSpans)
		}
		return nil
	}
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		switch probe.Type {
		case "run":
			if err := checkComplete(); err != nil {
				return nil, fmt.Errorf("obs: line %d: %v", line, err)
			}
			var rl runLine
			if err := json.Unmarshal(raw, &rl); err != nil {
				return nil, fmt.Errorf("obs: line %d: %v", line, err)
			}
			cur = &Record{
				Experiment: rl.Experiment, Point: rl.Point, Seed: rl.Seed,
				Dropped: rl.Dropped,
				Metrics: make([]Sample, 0, rl.Metrics),
				Spans:   make([]Span, 0, rl.Spans),
			}
			wantMetrics, wantSpans = rl.Metrics, rl.Spans
			out = append(out, cur)
		case "metric":
			if cur == nil {
				return nil, fmt.Errorf("obs: line %d: metric before run header", line)
			}
			var ml metricLine
			if err := json.Unmarshal(raw, &ml); err != nil {
				return nil, fmt.Errorf("obs: line %d: %v", line, err)
			}
			cur.Metrics = append(cur.Metrics, ml.Sample)
		case "span":
			if cur == nil {
				return nil, fmt.Errorf("obs: line %d: span before run header", line)
			}
			var sl spanLine
			if err := json.Unmarshal(raw, &sl); err != nil {
				return nil, fmt.Errorf("obs: line %d: %v", line, err)
			}
			cur.Spans = append(cur.Spans, sl.Span)
		default:
			return nil, fmt.Errorf("obs: line %d: unknown line type %q", line, probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkComplete(); err != nil {
		return nil, err
	}
	return out, nil
}
