package main

import (
	"bytes"
	"encoding/json"
	"slices"
)

// metric is one named measurement. A metric the workload cannot produce is
// absent, with the reason, never zero.
type metric struct {
	Value   float64
	Unit    string
	Samples int    // sample count behind a percentile, 0 when not one
	Absent  string // reason the metric is absent; empty when measured
}

func (m metric) MarshalJSON() ([]byte, error) {
	if m.Absent != "" {
		return json.Marshal(struct {
			Unit   string `json:"unit"`
			Absent string `json:"absent"`
		}{m.Unit, m.Absent})
	}
	return json.Marshal(struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples,omitempty"`
	}{m.Value, m.Unit, m.Samples})
}

// metrics keeps named metrics in insertion order.
type metrics struct {
	names []string
	m     map[string]metric
}

func (ms *metrics) set(name string, v metric) {
	if ms.m == nil {
		ms.m = make(map[string]metric)
	}
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = v
}

func (ms *metrics) val(name string, v float64, unit string) {
	ms.set(name, metric{Value: v, Unit: unit})
}

func (ms *metrics) absent(name, unit, why string) { ms.set(name, metric{Unit: unit, Absent: why}) }

// only returns the listed metrics, in list order; a name not measured is
// reported by ok=false.
func (ms *metrics) only(names []string) (metrics, bool) {
	var out metrics
	for _, n := range names {
		v, found := ms.m[n]
		if !found || v.Absent != "" {
			return out, false
		}
		out.set(n, metric{Value: v.Value, Unit: v.Unit})
	}
	return out, true
}

func (ms metrics) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, n := range ms.names {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, _ := json.Marshal(n)
		v, err := json.Marshal(ms.m[n])
		if err != nil {
			return nil, err
		}
		buf.Write(k)
		buf.WriteByte(':')
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perOp is a counter per completed operation.
func perOp(count uint64, ops uint64) float64 { return float64(count) / float64(ops) }

// midmean is the mean of the middle half of v (the interquartile mean). Like
// the median it ignores the outer quarters, where bursts of interference
// land; unlike the median it moves smoothly when the host drifts between
// slower and faster spells within a run.
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
