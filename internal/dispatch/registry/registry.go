// Package registry hosts many concurrent characterization campaigns
// behind one long-lived coordinator process. Each campaign gets a
// fingerprint-bearing ID, a worker auth token, and its own durable
// write-ahead queue (dispatch.WALQueue) in a per-campaign
// subdirectory of the registry's state directory — so a coordinator
// restart reopens every campaign exactly where it stood, and a
// campaign's workers can neither read nor mutate another campaign's
// units.
package registry

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// metaFile is the durable per-campaign record; its presence commits
// the campaign (a crash mid-create leaves a meta-less directory the
// scan ignores).
const metaFile = "meta.json"

// Meta is a campaign's durable identity.
type Meta struct {
	ID string `json:"id"`
	// Token authenticates this campaign's workers. Returned once at
	// creation (and at each rotation) and never listed again.
	Token       string    `json:"token"`
	Fingerprint string    `json:"fingerprint"`
	CreatedAt   time.Time `json:"createdAt"`
	// PrevToken is the previously-issued worker token, still honored
	// for one rotation's grace so a live fleet can be re-keyed without
	// a synchronized restart. Cleared by the next rotation.
	PrevToken string `json:"prevToken,omitempty"`
}

// Info is the public listing entry: identity plus a live progress
// summary, with the worker token withheld.
type Info struct {
	ID          string          `json:"id"`
	Fingerprint string          `json:"fingerprint"`
	CreatedAt   time.Time       `json:"createdAt"`
	Canceled    bool            `json:"canceled,omitempty"`
	Status      dispatch.Status `json:"status"`
}

// campaign is one hosted campaign's live state.
type campaign struct {
	meta  Meta
	queue *dispatch.WALQueue
	// handler is the campaign's single-campaign dispatch API, which
	// the registry handler serves under /v1/campaigns/{id}/.
	handler http.Handler
	// doneAt is when a retention sweep first observed the campaign
	// drained or canceled; zero while it is still live. Retention
	// counts from this observation, so a coordinator restart restarts
	// the clock rather than deleting a freshly reopened campaign.
	doneAt time.Time
}

// Registry is the multi-campaign coordinator state: a directory of
// per-campaign WAL queues and the in-memory handles serving them.
type Registry struct {
	dir string
	// now is the sweep clock; tests inject a fake via SetClock.
	now func() time.Time

	mu        sync.Mutex
	campaigns map[string]*campaign
	closed    bool
}

// Open loads (or initializes) a registry state directory, reopening
// every committed campaign's durable queue. A campaign directory
// whose journal is damaged fails the open loudly — silently dropping
// a campaign a worker fleet is computing would be worse than refusing
// to start.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Registry{dir: dir, now: time.Now, campaigns: make(map[string]*campaign)}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cdir := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(filepath.Join(cdir, metaFile))
		if errors.Is(err, os.ErrNotExist) {
			continue // uncommitted create, or not a campaign at all
		}
		if err != nil {
			return nil, err
		}
		var meta Meta
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("registry: %s: %v", filepath.Join(cdir, metaFile), err)
		}
		if meta.ID != e.Name() {
			return nil, fmt.Errorf("registry: %s records id %q", cdir, meta.ID)
		}
		q, err := dispatch.OpenWALQueue(cdir)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("registry: reopen campaign %s: %w", meta.ID, err)
		}
		r.campaigns[meta.ID] = &campaign{meta: meta, queue: q, handler: dispatch.NewHandler(q)}
	}
	return r, nil
}

// Create registers a new campaign for m and returns its identity —
// the only time the worker token is handed out.
func (r *Registry) Create(m dispatch.Manifest) (Meta, error) {
	if err := m.Validate(); err != nil {
		return Meta{}, err
	}
	meta := Meta{
		ID:          newCampaignID(m.Fingerprint),
		Token:       randHex(16),
		Fingerprint: m.Fingerprint,
		CreatedAt:   time.Now().UTC().Truncate(time.Second),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return Meta{}, errors.New("registry: closed")
	}
	cdir := filepath.Join(r.dir, meta.ID)
	q, err := dispatch.CreateWALQueue(cdir, m)
	if err != nil {
		return Meta{}, err
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		q.Close()
		return Meta{}, err
	}
	// Meta lands last: its rename commits the campaign atomically.
	if err := resultio.WriteFileAtomic(filepath.Join(cdir, metaFile), append(data, '\n')); err != nil {
		q.Close()
		return Meta{}, err
	}
	r.campaigns[meta.ID] = &campaign{meta: meta, queue: q, handler: dispatch.NewHandler(q)}
	return meta, nil
}

// Authorize checks a campaign worker token, mapping an unknown id to
// dispatch.ErrUnknownCampaign and a wrong token to
// dispatch.ErrBadCampaignToken — two distinct sentinels, so a worker
// pointed at the wrong campaign and a worker holding a stale token
// are told apart. Both the current token and (during a rotation's
// grace window) the previous one are accepted; each comparison is
// constant-time, and both run unconditionally so the check's timing
// does not reveal which token matched.
func (r *Registry) Authorize(id, token string) error {
	r.mu.Lock()
	c, ok := r.campaigns[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", dispatch.ErrUnknownCampaign, id)
	}
	cur, prev := c.meta.Token, c.meta.PrevToken
	r.mu.Unlock()
	okCur := subtle.ConstantTimeCompare([]byte(token), []byte(cur))
	okPrev := 0
	if prev != "" {
		okPrev = subtle.ConstantTimeCompare([]byte(token), []byte(prev))
	}
	if okCur|okPrev != 1 {
		return fmt.Errorf("%w: campaign %s", dispatch.ErrBadCampaignToken, id)
	}
	return nil
}

// Rotate re-keys a campaign: a fresh worker token is minted and
// persisted, and the outgoing token is retained as PrevToken — still
// authorized until the *next* rotation, so a fleet can pick up the new
// token at its own pace. Rotating twice in a row therefore revokes the
// original token entirely.
func (r *Registry) Rotate(id string) (Meta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return Meta{}, errors.New("registry: closed")
	}
	c, ok := r.campaigns[id]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", dispatch.ErrUnknownCampaign, id)
	}
	meta := c.meta
	meta.PrevToken = meta.Token
	meta.Token = randHex(16)
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return Meta{}, err
	}
	if err := resultio.WriteFileAtomic(filepath.Join(r.dir, id, metaFile), append(data, '\n')); err != nil {
		return Meta{}, fmt.Errorf("registry: rotate campaign %s: %w", id, err)
	}
	c.meta = meta
	return meta, nil
}

// Cancel durably cancels a campaign: its queue journals the
// cancellation, after which every worker mutation fails with
// dispatch.ErrCanceled (idempotent; reads keep answering).
func (r *Registry) Cancel(id string) error {
	c, err := r.lookup(id)
	if err != nil {
		return err
	}
	return c.queue.Cancel()
}

// List summarizes every hosted campaign, newest first.
func (r *Registry) List() ([]Info, error) {
	r.mu.Lock()
	cs := make([]*campaign, 0, len(r.campaigns))
	for _, c := range r.campaigns {
		cs = append(cs, c)
	}
	r.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool {
		if !cs[i].meta.CreatedAt.Equal(cs[j].meta.CreatedAt) {
			return cs[i].meta.CreatedAt.After(cs[j].meta.CreatedAt)
		}
		return cs[i].meta.ID < cs[j].meta.ID
	})
	infos := make([]Info, 0, len(cs))
	for _, c := range cs {
		info, err := c.info()
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// Describe summarizes one campaign.
func (r *Registry) Describe(id string) (Info, error) {
	c, err := r.lookup(id)
	if err != nil {
		return Info{}, err
	}
	return c.info()
}

func (c *campaign) info() (Info, error) {
	st, err := c.queue.Status()
	if err != nil {
		return Info{}, err
	}
	return Info{
		ID:          c.meta.ID,
		Fingerprint: c.meta.Fingerprint,
		CreatedAt:   c.meta.CreatedAt,
		Canceled:    c.queue.Canceled(),
		Status:      st,
	}, nil
}

func (r *Registry) lookup(id string) (*campaign, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", dispatch.ErrUnknownCampaign, id)
	}
	return c, nil
}

// Sweep garbage-collects finished campaigns: one that has been
// observed drained or canceled for at least ttl is closed, its state
// directory (journal, checkpoints, meta) deleted, and its ID retired —
// workers and reads then answer dispatch.ErrUnknownCampaign. The first
// sweep that sees a campaign finished only starts its retention clock;
// a campaign that somehow goes live again (a canceled-then-uncanceled
// state cannot happen today, but a half-drained one rewinds on crash
// recovery) has the clock reset. Returns the IDs removed.
func (r *Registry) Sweep(ttl time.Duration) ([]string, error) {
	if ttl < 0 {
		return nil, fmt.Errorf("registry: negative retention %v", ttl)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("registry: closed")
	}
	var removed []string
	for id, c := range r.campaigns {
		done := c.queue.Canceled()
		if !done {
			st, err := c.queue.Status()
			if err != nil {
				return removed, err
			}
			done = st.Drained()
		}
		if !done {
			c.doneAt = time.Time{}
			continue
		}
		if c.doneAt.IsZero() {
			c.doneAt = r.now()
			continue
		}
		if r.now().Sub(c.doneAt) < ttl {
			continue
		}
		if err := c.queue.Close(); err != nil {
			return removed, fmt.Errorf("registry: close campaign %s: %w", id, err)
		}
		if err := os.RemoveAll(filepath.Join(r.dir, id)); err != nil {
			return removed, fmt.Errorf("registry: remove campaign %s: %w", id, err)
		}
		delete(r.campaigns, id)
		removed = append(removed, id)
	}
	sort.Strings(removed)
	return removed, nil
}

// Close flushes and closes every campaign's journal. The registry
// refuses further creates; queue reads keep answering from memory.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	var first error
	for _, c := range r.campaigns {
		if err := c.queue.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newCampaignID mints a campaign ID that wears its campaign
// fingerprint (so an operator can eyeball which spec a campaign runs)
// plus a random nonce (so re-creating the same spec yields a distinct
// campaign).
func newCampaignID(fingerprint string) string {
	fp := fingerprint
	if len(fp) > 8 {
		fp = fp[:8]
	}
	return fmt.Sprintf("c-%s-%s", fp, randHex(4))
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b)
}
