package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/obs"
	"mtexc/internal/stats"
	"mtexc/internal/telemetry"
)

// JournalEntry is one completed simulation in the on-disk journal:
// the run fingerprint, the experiment that first needed it, and the
// result in the schema-versioned snapshot vocabulary (obs.Meta plus
// the raw counters). Everything a table cell derives from a Result —
// cycles, instruction and miss counts, IPC, named counters — round-
// trips exactly, so a journaled suite renders byte-identical tables.
type JournalEntry struct {
	Schema     int               `json:"schema"`
	Key        string            `json:"key"`
	Experiment string            `json:"experiment"`
	Meta       obs.Meta          `json:"meta"`
	Counters   map[string]uint64 `json:"counters"`
}

// Journal is the harness's one store of completed runs, keyed by
// runKey fingerprints. In memory it single-flights every run: the
// first job to ask for a run simulates it, a job asking meanwhile
// waits on that simulation, and every later job shares its full
// Result, so each distinct run simulates once per journal, whichever
// experiments ask for it.
//
// A journal opened with a file is also a crash-safe append-only
// record of those runs, NDJSON on disk. Each completed run is
// appended as one Write of one full line, so a kill at any instant
// loses at most the line being written; Open tolerates (and discards)
// a torn trailing line. A resumed journal answers the runs an earlier
// invocation recorded without simulating them. The zero Journal has
// no file: it encodes nothing and answers only this process's runs.
type Journal struct {
	// runs holds the Result of every run this process simulated
	// through the journal.
	runs flight[core.Result]
	// mu serializes appends.
	mu sync.Mutex
	f  *os.File
	// w is the append target (f, except under write-failure tests);
	// nil when the journal has no file.
	w io.Writer
	// entries holds what the file held when it was resumed; it is
	// not written after OpenJournal returns.
	entries map[string]*JournalEntry
	hits    atomic.Int64
	appends atomic.Int64
	retries atomic.Uint64
}

// journalScanCap bounds one journal line; entries are a few KB of
// counters, so 1MB is generous.
const journalScanCap = 1 << 20

// OpenJournal opens (creating if needed) the NDJSON journal at path.
// With resume set, existing entries are loaded and later lookups hit
// them; without it the file is truncated, so a fresh suite never
// replays stale results. Lines that fail to decode — the torn final
// line of a killed run, foreign junk — are skipped, not fatal. An
// empty path opens a journal with no file.
func OpenJournal(path string, resume bool) (*Journal, error) {
	if path == "" {
		return &Journal{}, nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: creating journal directory: %w", err)
		}
	}
	flags := os.O_CREATE | os.O_RDWR
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	j := &Journal{f: f, w: f, entries: make(map[string]*JournalEntry)}
	if resume {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64*1024), journalScanCap)
		for sc.Scan() {
			var e JournalEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				continue // torn or foreign line
			}
			if e.Schema != obs.SchemaVersion || e.Key == "" {
				continue
			}
			j.entries[e.Key] = &e
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: reading journal: %w", err)
		}
		// A kill mid-Write can leave a torn final line with no
		// newline. Terminate it so the next append starts a fresh
		// line instead of fusing with (and corrupting) the remnant;
		// the now-complete garbage line is skipped by future loads.
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			last := make([]byte, 1)
			if _, err := f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
				if _, err := f.WriteAt([]byte("\n"), st.Size()); err != nil {
					f.Close()
					return nil, fmt.Errorf("harness: repairing journal tail: %w", err)
				}
			}
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: seeking journal: %w", err)
		}
	}
	return j, nil
}

// Close releases the journal file, if it has one.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// Len reports how many entries the journal read from its file on
// resume.
func (j *Journal) Len() int { return len(j.entries) }

// Hits reports how many runs the journal answered without simulating:
// every answer from the file, and every cell subject that another job
// of this process ran. A baseline shared through the store is not a
// hit: the telemetry plane counts it as a baseline run and waits.
func (j *Journal) Hits() int64 { return j.hits.Load() }

// Appends reports how many completed simulations this process
// recorded — zero on a resume of an already-complete suite.
func (j *Journal) Appends() int64 { return j.appends.Load() }

// WriteRetries reports how many transient append Write errors the
// bounded retry recovered (telemetry exposes this as
// mtexc_journal_write_retries_total).
func (j *Journal) WriteRetries() uint64 { return j.retries.Load() }

// lookup reconstructs the Result a resumed journal's file holds for
// key, if any: an answer from the file is always a resume. The Result
// carries everything the experiment tables consume: the Meta scalars
// and a stats set holding the recorded counters. Histograms and raw
// observations are not journaled, so Report, whose miss-latency table
// merges the span histograms, runs on a journal with no file.
func (j *Journal) lookup(key string) (core.Result, bool) {
	e := j.entries[key]
	if e == nil {
		return core.Result{}, false
	}
	j.hits.Add(1)
	// Registration order is observable (Set.String, Set.Each, snapshot
	// assembly), so the counters must not be registered in map order.
	set := stats.NewSet()
	for _, name := range sortedCounterNames(e.Counters) {
		set.Counter(name).Value = e.Counters[name]
	}
	return core.Result{
		Cycles:     e.Meta.Cycles,
		AppInsts:   e.Meta.AppInsts,
		DTLBMisses: e.Meta.DTLBMisses,
		IPC:        e.Meta.IPC,
		Stats:      set,
	}, true
}

// record appends one completed simulation to the journal's file, one
// marshalled line in one Write, timed on tel. The store runs each key
// once, so no key is recorded twice. A journal with no file records,
// and encodes, nothing.
func (j *Journal) record(tel *telemetry.Cell, exp, key string, cfg core.Config, benches []string, res core.Result) error {
	if j.w == nil {
		return nil
	}
	defer tel.JournalAppendBegin()()
	e := &JournalEntry{
		Schema:     obs.SchemaVersion,
		Key:        key,
		Experiment: exp,
		Meta:       core.Meta(cfg, benches, res),
		Counters:   counterMap(res.Stats),
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("harness: encoding journal entry: %w", err)
	}
	line = append(line, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(line); err != nil {
		// One bounded retry after a jittered backoff: transient
		// filesystem hiccups (NFS, overlay commits) recover, anything
		// persistent still fails loudly. The retry leads with a
		// newline so a torn partial first attempt is isolated as a
		// garbage line future loads skip — the same torn-line contract
		// as a kill mid-Write.
		j.retries.Add(1)
		retryBackoff(key)
		if _, err2 := j.w.Write(append([]byte{'\n'}, line...)); err2 != nil {
			return fmt.Errorf("harness: appending journal entry (retried once): %w", err2)
		}
	}
	j.appends.Add(1)
	return nil
}

// retryBackoff sleeps 1ms plus a deterministic key-derived jitter (up
// to ~1ms more) before a write retry, so concurrent cells hitting the
// same transient failure do not retry in lockstep. FNV of the key
// replaces unseeded randomness: the harness is a deterministic
// package, and the delay affects only wall-clock, never results.
func retryBackoff(key string) {
	h := fnv.New64a()
	io.WriteString(h, key)
	time.Sleep(time.Millisecond + time.Duration(h.Sum64()%1024)*time.Microsecond)
}

// sortedCounterNames returns a counter map's names in sorted order,
// so map iteration order never reaches an order-sensitive consumer.
func sortedCounterNames(m map[string]uint64) []string {
	names := make([]string, 0, len(m))
	//lint:allow detlint keys are sorted before they escape
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// counterMap extracts the named counters of a run (histograms are
// summarized by counters the experiments never read; they are not
// journaled).
func counterMap(set *stats.Set) map[string]uint64 {
	m := make(map[string]uint64)
	if set == nil {
		return m
	}
	set.Each(func(name string, c *stats.Counter, h *stats.Histogram) {
		if c != nil {
			m[name] = c.Value
		}
	})
	return m
}
