package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark's own load generator.  A closed loop sends a client's next
// request when the previous one completes; the open loop sends on a fixed
// schedule and times each request from when it was due, so a stall counts
// against every request it delays.  No tick is ever dropped: a late
// generator sends back to back until it has caught up, and reports how
// late it ran.  Latencies are kept exactly and reduced by sorting.

// conn is one keep-alive connection: a client with its own transport that
// holds at most one connection, and a reusable body buffer.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// reply is what the generator keeps of one response.
type reply struct {
	status  int
	sum     answerSum
	version uint64
	// elapsedMS is the evaluation time the server reports for the request.
	elapsedMS float64
	cached    bool
	done      bool // an NDJSON stream ended with its "done" tail
	// head holds the first rows, which a limited answer is checked by.
	head [10]pair
}

// do sends one request and reduces the response body; err is a transport
// failure.
func (c *conn) do(method, path, body string) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode}
	if r.status == http.StatusOK {
		scanBody(c.buf.Bytes(), &r)
	}
	return r, nil
}

func (c *conn) query(q request) (reply, error) {
	path := "/v1/query"
	if q.Kind == kindStream {
		path += "?stream=1"
	}
	return c.do(http.MethodPost, path, q.body())
}

// scanBody reduces a /v1/query or /v1/facts response in one pass over its
// bytes: every row ["n<a>","n<b>"] goes into the checksum (rows are the
// only place `["n` occurs), and the version, evaluation time and flags are
// read from the metadata that follows the rows.
func scanBody(b []byte, r *reply) {
	i, last := 0, 0
	for {
		j := bytes.Index(b[i:], []byte(`["n`))
		if j < 0 {
			break
		}
		i += j + 3
		a, n := atoi(b[i:])
		i += n
		if !bytes.HasPrefix(b[i:], []byte(`","n`)) {
			continue
		}
		i += 4
		c, n := atoi(b[i:])
		i += n
		if !bytes.HasPrefix(b[i:], []byte(`"]`)) {
			continue
		}
		if r.sum.N < len(r.head) {
			r.head[r.sum.N] = pair{a, c}
		}
		r.sum.add(a, c)
		last = i
	}
	meta := b[last:]
	r.version = uint64(number(meta, `"snapshot_version":`))
	r.elapsedMS = number(meta, `"elapsed_ms":`)
	r.cached = bytes.Contains(meta, []byte(`"cached":true`))
	r.done = bytes.Contains(meta, []byte(`{"done":true`))
}

// atoi parses leading decimal digits, returning the value and how many
// bytes it used.
func atoi(b []byte) (int32, int) {
	v, n := int32(0), 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + int32(b[n]-'0')
		n++
	}
	return v, n
}

// number returns the JSON number following key in b, 0 when absent.
func number(b []byte, key string) float64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	i += len(key)
	j := i
	for j < len(b) && (b[j] == '.' || b[j] == '-' || b[j] == 'e' || b[j] == '+' || b[j] >= '0' && b[j] <= '9') {
		j++
	}
	v, _ := strconv.ParseFloat(string(b[i:j]), 64)
	return v
}

// obs is one completed (or failed) request of a load run.
type obs struct {
	idx   int   // index into the run's goal pool or write list
	late  int64 // ns from due time to send (open loop; 0 in a closed loop)
	lat   int64 // ns from due time (open loop) or send (closed loop) to last byte
	end   int64 // ns from the start of the loop to the last byte
	reply reply
	err   error
}

// closedLoop runs `clients` goroutines, each with one connection, each
// sending its next request as soon as the previous one completes, for the
// given time.  pick draws the next pool index for a client from that
// client's own generator, so the sequence each client sends is a function
// of the seed alone.
func closedLoop(addr string, clients int, seconds float64, pool []request, pick func(client int) func() int) []obs {
	var wg sync.WaitGroup
	per := make([][]obs, clients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			next := pick(cl)
			for time.Now().Before(deadline) {
				i := next()
				t := time.Now()
				r, err := c.query(pool[i])
				per[cl] = append(per[cl], obs{idx: i, lat: int64(time.Since(t)), end: int64(time.Since(start)), reply: r, err: err})
			}
		}(cl)
	}
	wg.Wait()
	var all []obs
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// windowRate returns the median, over the whole windows of the given
// length, of the number of observations completing in a window, as a rate
// per second: a second of interference from the sandbox's neighbours
// costs its windows, not a share of the total.
func windowRate(all []obs, window time.Duration) (perSecond float64, windows int) {
	last := int64(0)
	for _, o := range all {
		last = max(last, o.end)
	}
	counts := make([]float64, last/int64(window))
	for _, o := range all {
		if w := int(o.end / int64(window)); w < len(counts) {
			counts[w]++
		}
	}
	return median(counts) / window.Seconds(), len(counts)
}

// waitUntil returns at due, not after it: the sandbox's timers fire up to
// a millisecond late, which would be billed to every request, so the
// generator sleeps short and yields its way through the last stretch.
func waitUntil(due time.Time) {
	if d := time.Until(due) - 500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// schedule returns the due offset of tick i at the given rate.
func schedule(i int, perSecond float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / perSecond)
}

// openLoop sends reads[i] when tick i is due, on one connection, and on a
// second connection write k when read k·writeEvery is due (count-paced, so
// the same reads race the same writes on every run).  Each request is
// timed from its due time.  Writes are sent in order; their observations
// come back in that order.
func openLoop(addr string, perSecond float64, reads []request, writes []write, writeEvery int) (readObs, writeObs []obs) {
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn(addr)
		defer c.close()
		readObs = make([]obs, 0, len(reads))
		for i, q := range reads {
			due := start.Add(schedule(i, perSecond))
			waitUntil(due)
			sent := time.Now()
			r, err := c.query(q)
			readObs = append(readObs, obs{idx: i, late: int64(sent.Sub(due)), lat: int64(time.Since(due)), reply: r, err: err})
		}
	}()
	go func() {
		defer wg.Done()
		c := newConn(addr)
		defer c.close()
		for k, w := range writes {
			due := start.Add(schedule((k+1)*writeEvery, perSecond))
			waitUntil(due)
			sent := time.Now()
			method := http.MethodPost
			if w.Delete {
				method = http.MethodDelete
			}
			r, err := c.do(method, "/v1/facts", w.body())
			writeObs = append(writeObs, obs{idx: k, late: int64(sent.Sub(due)), lat: int64(time.Since(due)), reply: r, err: err})
		}
	}()
	wg.Wait()
	return readObs, writeObs
}

// latencies returns the ascending latencies, in ns, of the observations
// keep selects.
func latencies(all []obs, keep func(obs) bool) []float64 {
	var out []float64
	for _, o := range all {
		if keep(o) {
			out = append(out, float64(o.lat))
		}
	}
	sort.Float64s(out)
	return out
}
