// HTTP client helpers the server tests drive linrecd with, and the
// strict Prometheus text reader /metrics output is checked against.

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// doJSON issues one JSON request (nil in = empty body) and decodes a
// 200 reply into out; non-200 replies come back as *HTTPError with the
// body's first 512 bytes.  The shared skeleton behind every client call.
func doJSON(ctx context.Context, hc *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &HTTPError{Status: resp.StatusCode, Body: string(msg)}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// QueryOnce issues one query and returns the decoded response.
func QueryOnce(ctx context.Context, hc *http.Client, baseURL, query string, timeout time.Duration, workers int) (*QueryResponse, error) {
	var out QueryResponse
	err := doJSON(ctx, hc, http.MethodPost, baseURL+"/v1/query", QueryRequest{
		Query:     query,
		TimeoutMS: timeout.Milliseconds(),
		Workers:   workers,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryTraced issues one query with tracing requested and returns the
// decoded response, trace included.
func QueryTraced(ctx context.Context, hc *http.Client, baseURL, query string, timeout time.Duration, workers int) (*QueryResponse, error) {
	var out QueryResponse
	err := doJSON(ctx, hc, http.MethodPost, baseURL+"/v1/query", QueryRequest{
		Query:     query,
		TimeoutMS: timeout.Milliseconds(),
		Workers:   workers,
		Trace:     true,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// FetchMetrics scrapes /metrics, strictly parses the exposition body
// (ParsePrometheus) and returns the samples keyed by series.
func FetchMetrics(ctx context.Context, hc *http.Client, baseURL string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &HTTPError{Status: resp.StatusCode, Body: string(msg)}
	}
	return ParsePrometheus(resp.Body)
}

// PostFacts pushes a batch of ground facts and returns the new snapshot
// version.
func PostFacts(ctx context.Context, hc *http.Client, baseURL, facts string) (*FactsResponse, error) {
	var out FactsResponse
	if err := doJSON(ctx, hc, http.MethodPost, baseURL+"/v1/facts", FactsRequest{Facts: facts}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteFacts retracts a batch of ground facts (DELETE /v1/facts) and
// returns the new snapshot version and removed count.
func DeleteFacts(ctx context.Context, hc *http.Client, baseURL, facts string) (*FactsResponse, error) {
	var out FactsResponse
	if err := doJSON(ctx, hc, http.MethodDelete, baseURL+"/v1/facts", FactsRequest{Facts: facts}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FetchStats retrieves the server's /v1/stats report.
func FetchStats(ctx context.Context, hc *http.Client, baseURL string) (*StatsReport, error) {
	var out StatsReport
	if err := doJSON(ctx, hc, http.MethodGet, baseURL+"/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// HTTPError is a non-200 server reply.
type HTTPError struct {
	Status int
	Body   string
}

// Error renders the status and body.
func (e *HTTPError) Error() string { return fmt.Sprintf("http %d: %s", e.Status, e.Body) }

// ParsePrometheus strictly reads a text exposition body, returning the
// sample values keyed by series (metric name plus its label block,
// verbatim).  It fails on malformed lines, invalid metric or label
// names, duplicate series, unparseable values, and samples whose family
// was TYPE-declared only after they appeared — enough rigor that a
// passing body is ingestible by a real scraper.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	samples := map[string]float64{}
	typed := map[string]string{}
	sampled := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if len(fields) < 3 || !validMetricName(fields[2]) {
					return nil, fmt.Errorf("line %d: malformed %s comment: %q", lineNo, fields[1], line)
				}
				if fields[1] == "TYPE" {
					name := fields[2]
					if sampled[name] {
						return nil, fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
					}
					if _, dup := typed[name]; dup {
						return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
					}
					if len(fields) < 4 {
						return nil, fmt.Errorf("line %d: TYPE without a type: %q", lineNo, line)
					}
					typed[name] = fields[3]
				}
			}
			continue
		}
		series, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if _, dup := samples[series]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", lineNo, series)
		}
		samples[series] = value
		sampled[familyOf(series)] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// familyOf strips the label block and the histogram/summary suffixes,
// mapping a series back to the name its TYPE line declares.
func familyOf(series string) string {
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// parseSample splits one sample line into its series key and value.
func parseSample(line string) (series string, value float64, err error) {
	name := line
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", 0, fmt.Errorf("unterminated label block: %q", line)
		}
		if err := checkLabels(line[i+1 : j]); err != nil {
			return "", 0, fmt.Errorf("%v in %q", err, line)
		}
		series = line[:j+1]
		rest = strings.TrimSpace(line[j+1:])
	} else {
		k := strings.IndexAny(line, " \t")
		if k < 0 {
			return "", 0, fmt.Errorf("no value: %q", line)
		}
		name = line[:k]
		series = name
		rest = strings.TrimSpace(line[k:])
	}
	if !validMetricName(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	// An optional timestamp may follow the value.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", 0, fmt.Errorf("want value [timestamp], got %q", rest)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	return series, value, nil
}

// checkLabels validates the inside of a label block.
func checkLabels(s string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(s[:eq])
		if !validLabelName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %q value not quoted", name)
		}
		// Scan the quoted value honoring escapes.
		i := 1
		for i < len(s) {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			return fmt.Errorf("label %q value unterminated", name)
		}
		s = s[i+1:]
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}
