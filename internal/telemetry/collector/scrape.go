package collector

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"rebeca/internal/telemetry"
)

// maxScrapeBody bounds one scraped body. The largest legitimate bodies
// are full /metrics renders of big deployments and a full span store's
// export — hundreds of KiB; anything larger is hostile or corrupt.
const maxScrapeBody = 8 << 20

// target is one ops endpoint the registry lists, named by the brokers
// behind it, with where its span cursor stands.
type target struct {
	instance string
	ops      string
	cursor   uint64
	start    int64
}

// Run scrapes at once and then every Config.Interval until ctx ends.
func (c *Collector) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		c.Scrape()
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Scrape runs one round: it reads the registry, scrapes every listed ops
// endpoint in turn — GET /metrics, then GET /trace?since= with the
// endpoint's cursor — and applies what each returned. Brokers registered
// with one ops address (an in-process deployment) are one instance, named
// by their comma-joined IDs; when that set changes, the endpoint's rows
// move to the new name with their fold baselines. An endpoint the
// registry no longer lists — or every endpoint, when the registry cannot
// be read — is stale from this round on, unless its brokers are now
// listed at another endpoint, which replaces it.
func (c *Collector) Scrape() {
	unlisted := "not listed in the registry"
	entries, err := c.cfg.Registry.Discover()
	if err != nil {
		unlisted = "registry: " + err.Error()
	}
	ids := make(map[string][]string)
	for _, e := range entries {
		if e.Ops != "" {
			ids[e.Ops] = append(ids[e.Ops], string(e.ID))
		}
	}
	targets := make([]target, 0, len(ids))
	names := make(map[string]bool, len(ids))
	c.mu.Lock()
	for ops, brokers := range ids {
		sort.Strings(brokers)
		t := target{instance: strings.Join(brokers, ","), ops: ops}
		if inst, ok := c.instances[ops]; ok {
			if inst.name != t.instance {
				c.renameLocked(inst.name, t.instance)
				inst.name = t.instance
			}
			t.cursor, t.start = inst.cursor, inst.start
		}
		names[t.instance] = true
		targets = append(targets, t)
	}
	for ops, inst := range c.instances {
		switch {
		case ids[ops] != nil:
		case names[inst.name]:
			delete(c.instances, ops)
		default:
			inst.ok, inst.lastErr = false, unlisted
		}
	}
	c.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].ops < targets[j].ops })
	for _, t := range targets {
		c.scrape(t)
	}
}

// scrape reads one endpoint and applies the result: all of it, or on any
// failure nothing but the failure.
func (c *Collector) scrape(t target) {
	samples, trace, err := c.fetch(t)
	applied := 0
	if err == nil {
		c.applySamples(t.instance, samples)
		applied = c.ingestSpans(t.instance, trace.Spans)
		c.spanRecords.Add(uint64(applied))
		c.scrapesOK.Inc()
	} else {
		c.scrapesErr.Inc()
	}
	c.mu.Lock()
	inst, ok := c.instances[t.ops]
	if !ok {
		inst = &instanceState{name: t.instance}
		c.instances[t.ops] = inst
	}
	wasFailing := inst.lastErr != ""
	if err != nil {
		inst.ok, inst.lastErr = false, err.Error()
	} else {
		inst.ok, inst.lastErr = true, ""
		inst.scrapes++
		inst.spanRecords += uint64(applied)
		inst.cursor, inst.start = trace.Next, trace.Start
	}
	c.mu.Unlock()
	if l := c.cfg.Logger; l != nil && (err != nil) != wasFailing {
		if err != nil {
			l.Warn("scrape failing", "instance", t.instance, "ops", t.ops, "err", err)
		} else {
			l.Info("scrape recovered", "instance", t.instance, "ops", t.ops)
		}
	}
}

// fetch reads an instance's metrics and the spans changed since its
// cursor. A changed span-store stamp means the broker restarted and the
// cursor belongs to its old store, so the spans are read again from 0.
func (c *Collector) fetch(t target) ([]ingestSample, telemetry.TraceExport, error) {
	var trace telemetry.TraceExport
	body, err := c.get(t.ops, "/metrics")
	if err != nil {
		return nil, trace, err
	}
	samples, err := ingestProm(body)
	if err != nil {
		return nil, trace, fmt.Errorf("/metrics: %w", err)
	}
	if trace, err = c.spansSince(t.ops, t.cursor); err != nil {
		return nil, trace, err
	}
	if trace.Start != t.start && t.cursor != 0 {
		if trace, err = c.spansSince(t.ops, 0); err != nil {
			return nil, trace, err
		}
	}
	return samples, trace, nil
}

func (c *Collector) spansSince(ops string, cursor uint64) (telemetry.TraceExport, error) {
	var trace telemetry.TraceExport
	body, err := c.get(ops, fmt.Sprintf("/trace?since=%d", cursor))
	if err != nil {
		return trace, err
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		return trace, fmt.Errorf("/trace: %w", err)
	}
	return trace, nil
}

// get fetches one ops path: a 200 with a body under maxScrapeBody.
func (c *Collector) get(ops, path string) ([]byte, error) {
	resp, err := c.client.Get("http://" + ops + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxScrapeBody+1))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if len(body) > maxScrapeBody {
		return nil, fmt.Errorf("GET %s: body over %d bytes", path, maxScrapeBody)
	}
	return body, nil
}
