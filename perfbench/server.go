package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one schedserve child process listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has exited
}

// startServer launches bin on a free loopback port and returns once
// /healthz answers.
func startServer(bin string, c *client) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{cmd: exec.Command(bin, "-addr", addr), base: "http://" + addr, done: make(chan struct{})}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("%s exited before it was ready", bin)
		default:
		}
		if resp, err := c.hc.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s not ready within 20s", bin)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain and exit, kills it if it has not
// exited within 10 seconds, and waits until it has.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// scrape reads /metrics into a map from series (name plus labels, as
// printed) to value.
func (s *server) scrape(c *client) (series, error) {
	resp, err := c.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := series{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// series is one /metrics scrape.
type series map[string]float64

// sum adds every series of the named metric whose labels contain all
// of the given label pairs (`key="value"`).
func (m series) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		base, rest := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, rest = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after − before for the named metric.
func delta(before, after series, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// client posts request bodies over at most `workers` keep-alive
// connections.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        workers,
			MaxIdleConnsPerHost: workers,
			MaxConnsPerHost:     workers,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one request's outcome. Times are offsets from the phase
// start; due is when the request was scheduled to go out (the send
// time in a closed loop).
type reply struct {
	body      int
	status    int
	cache     string
	due, sent time.Duration
	done      time.Duration
	resp      []byte
	err       error
}

func (r *reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latency is the reply's latency from when it was due; a failed or
// refused request counts as failedLatency, beyond any limit.
func (r *reply) latency() time.Duration {
	if !r.ok() {
		return failedLatency
	}
	return r.done - r.due
}

// failedLatency is what a failed request counts as: the server's
// request timeout.
const failedLatency = 10 * time.Second

// post sends one body and reads the whole response.
func (c *client) post(url string, body []byte) (status int, cache string, resp []byte, err error) {
	r, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Sched-Cache"), resp, err
}

// closedLoop sends slots in order from `workers` goroutines, each
// sending its next request when the previous one completes, until dur
// has passed or the slots run out. Every slot it takes is sent, so the
// replies cover a prefix of slots. It returns the replies and the wall
// time the phase took.
func closedLoop(c *client, url string, bodies [][]byte, slots []int, dur time.Duration) ([]reply, time.Duration) {
	var next atomic.Int64
	per := make([][]reply, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if time.Since(start) >= dur {
					return
				}
				k := int(next.Add(1) - 1)
				if k >= len(slots) {
					return
				}
				b := slots[k]
				sent := time.Since(start)
				status, cache, resp, err := c.post(url, bodies[b])
				per[w] = append(per[w], reply{body: b, status: status, cache: cache, due: sent, sent: sent,
					done: time.Since(start), resp: resp, err: err})
			}
		}(w)
	}
	wg.Wait()
	return merge(per), time.Since(start)
}

// openLoop sends slot k at k/rate seconds after the phase start from
// `workers` goroutines. A request whose goroutines are all busy goes
// out late; its latency still counts from when it was due, so a stall
// also charges the requests queued behind it. Unlike a dropping
// ticker, no slot is ever skipped.
func openLoop(c *client, url string, bodies [][]byte, slots []int, rate float64) []reply {
	var next atomic.Int64
	per := make([][]reply, workers)
	interval := float64(time.Second) / rate
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(slots) {
					return
				}
				due := time.Duration(float64(k) * interval)
				if d := due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				b := slots[k]
				sent := time.Since(start)
				status, cache, resp, err := c.post(url, bodies[b])
				per[w] = append(per[w], reply{body: b, status: status, cache: cache, due: due, sent: sent,
					done: time.Since(start), resp: resp, err: err})
			}
		}(w)
	}
	wg.Wait()
	return merge(per)
}

func merge(per [][]reply) []reply {
	var out []reply
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
