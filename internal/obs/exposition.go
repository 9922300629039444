package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// The Prometheus text exposition format, version 0.0.4:
// https://prometheus.io/docs/instrumenting/exposition_formats/
//
// Mapping from obs kinds:
//
//	Counter   -> counter      name value
//	Gauge     -> gauge        name value
//	Timer     -> summary      name_sum (seconds) + name_count
//	Histogram -> histogram    name_bucket{le="..."} cumulative,
//	                          name_sum (seconds) + name_count
//
// Dots in metric names become underscores; durations are exposed in
// seconds per Prometheus convention (internally they are nanoseconds).

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// SanitizeMetricName maps an obs metric name onto the Prometheus name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*: dots (and any other invalid byte)
// become underscores, and a leading digit gains a leading underscore.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a help string for a # HELP line (backslash and
// newline, per the format spec).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatSeconds renders a nanosecond total as seconds with full float64
// precision ('g' drops trailing zeros, matching common exporters).
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// bucketLE returns the le label values for the histogram buckets, in
// seconds, parallel to histBounds plus "+Inf" for the overflow bucket.
func bucketLE() []string {
	les := make([]string, 0, len(histBounds)+1)
	for _, b := range histBounds {
		les = append(les, strconv.FormatFloat(b.Seconds(), 'g', -1, 64))
	}
	return append(les, "+Inf")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeHeader writes the # HELP (when registered) and # TYPE lines.
func (r *Registry) writeHeader(w io.Writer, name, sanitized, kind string) error {
	if help := r.Help(name); help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", sanitized, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", sanitized, kind)
	return err
}

// WritePrometheus writes the registry's current state in the Prometheus
// text exposition format, metrics sorted by name within each kind so
// output is deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy the metric maps under the lock, then format without it (the
	// metric objects themselves are read atomically).
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	timers := make(map[string]*Timer, len(r.timers))
	for n, t := range r.timers {
		timers[n] = t
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(counters) {
		s := SanitizeMetricName(name)
		if err := r.writeHeader(bw, name, s, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s %d\n", s, counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		s := SanitizeMetricName(name)
		if err := r.writeHeader(bw, name, s, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s %d\n", s, gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(timers) {
		s := SanitizeMetricName(name)
		t := timers[name]
		if err := r.writeHeader(bw, name, s, "summary"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s_sum %s\n", s, formatSeconds(t.nanos.Load())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s_count %d\n", s, t.Count()); err != nil {
			return err
		}
	}
	les := bucketLE()
	for _, name := range sortedKeys(histograms) {
		s := SanitizeMetricName(name)
		h := histograms[name]
		if err := r.writeHeader(bw, name, s, "histogram"); err != nil {
			return err
		}
		cum := int64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", s, les[i], cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%s_sum %s\n", s, formatSeconds(h.nanos.Load())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s_count %d\n", s, h.Count()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WritePrometheus writes the default registry in the Prometheus text
// exposition format.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// Handler returns an http.Handler serving the registry in the
// Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		// An error here means the client went away mid-write; there is
		// nothing left to report to.
		_ = r.WritePrometheus(w)
	})
}

// Handler returns the /metrics handler for the default registry.
func Handler() http.Handler { return Default.Handler() }

func init() {
	// Like the net/http/pprof import in profile.go, /metrics registers
	// on the default mux: every binary that serves -pprof gets the
	// Prometheus surface on the same port.
	http.Handle("/metrics", Handler())
}
