package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree/internal/storage"
)

// HTTP transport: a Server exposes any Source over three GET endpoints,
// and HTTPSource is its client-side Source. The wire protocol is
// deliberately dumb — JSON listing plus raw byte ranges — so a follower
// can resume from any byte offset and nothing on the server holds
// per-follower state. Acknowledgements piggyback on the listing poll,
// carrying the follower's identity and fencing epoch; a server whose
// primary discovers from the epoch that it has been deposed answers
// 409 Conflict, which the client reports as ErrFenced.
//
//	GET /repl/v1/segments?ack=LSN&epoch=E&follower=ID -> {"tip":…,"segments":[…]}
//	    (409 Conflict when the ack's epoch fences the primary)
//	GET /repl/v1/segment?index=I&first=L&off=O&max=M -> raw bytes
//	    (410 Gone when the segment was truncated away)
//	GET /repl/v1/health            -> 200 while the source is healthy
//
// See REPLICATION.md for the full wire reference.

// Server serves a Source to HTTP followers. Wrap a WALSource to ship from
// a live primary in-process, or a DirSource to ship someone else's
// segment directory (dctool ship).
type Server struct {
	src Source
}

// NewServer returns a shipping server over src.
func NewServer(src Source) *Server { return &Server{src: src} }

// Handler returns the server's routes, mountable on any mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/v1/segments", s.handleSegments)
	mux.HandleFunc("/repl/v1/segment", s.handleSegment)
	mux.HandleFunc("/repl/v1/health", s.handleHealth)
	return mux
}

// segmentJSON is one listing entry on the wire (Path stays server-side).
type segmentJSON struct {
	Index    uint64 `json:"index"`
	FirstLSN uint64 `json:"firstLSN"`
	Size     int64  `json:"size"`
	Sealed   bool   `json:"sealed"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// listingJSON is the /segments response body.
type listingJSON struct {
	// Tip is the primary's last assigned LSN, 0 when the underlying
	// source does not know it.
	Tip      uint64        `json:"tip"`
	Segments []segmentJSON `json:"segments"`
}

func (s *Server) handleSegments(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if ack := q.Get("ack"); ack != "" {
		if lsn, err := strconv.ParseUint(ack, 10, 64); err == nil {
			info := AckInfo{Follower: q.Get("follower"), LSN: lsn}
			info.Epoch, _ = strconv.ParseUint(q.Get("epoch"), 10, 64)
			if info.Follower == "" {
				info.Follower = r.RemoteAddr
			}
			if err := s.src.Ack(info); errors.Is(err, ErrFenced) {
				// The primary behind this server has been deposed — tell
				// the follower so it stops polling a dead timeline.
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
		}
	}
	segs, err := s.src.Segments()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := listingJSON{Segments: make([]segmentJSON, 0, len(segs))}
	if t, ok := s.src.(Tipper); ok {
		out.Tip = t.TipLSN()
	}
	for _, seg := range segs {
		out.Segments = append(out.Segments, segmentJSON{
			Index: seg.Index, FirstLSN: seg.FirstLSN, Size: seg.Size, Sealed: seg.Sealed,
			Epoch: seg.Epoch,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	index, err1 := strconv.ParseUint(q.Get("index"), 10, 64)
	first, err2 := strconv.ParseUint(q.Get("first"), 10, 64)
	off, err3 := strconv.ParseInt(q.Get("off"), 10, 64)
	max, err4 := strconv.Atoi(q.Get("max"))
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || max <= 0 {
		http.Error(w, "bad segment range parameters", http.StatusBadRequest)
		return
	}
	if max > 4<<20 {
		max = 4 << 20
	}
	// Resolve the segment's current path from a fresh listing; the
	// (index, firstLSN) identity the client pins is then re-verified by
	// the storage-layer header double-check inside ReadAt.
	segs, err := s.src.Segments()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, seg := range segs {
		if seg.Index != index {
			continue
		}
		if seg.FirstLSN != first {
			break // same index, different identity: not the log the client follows
		}
		data, err := s.src.ReadAt(seg, off, max)
		if errors.Is(err, storage.ErrSegmentGone) {
			break
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
		return
	}
	http.Error(w, "segment gone", http.StatusGone)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !s.src.Healthy() {
		http.Error(w, "unhealthy", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// HTTPSource is the client side of a repl.Server: a Source whose listing
// and reads come over HTTP. Health is the server's /health
// endpoint — an unreachable server counts as unhealthy, which is what
// arms a follower's promotion timer.
type HTTPSource struct {
	// Base is the server's root URL, e.g. "http://standby-src:7070".
	Base string
	// Client is the HTTP client to use; nil selects a client with
	// DefaultHTTPTimeout.
	Client *http.Client

	ack atomic.Pointer[AckInfo] // last acknowledgement (nil = none yet)
	tip atomic.Uint64
}

// DefaultHTTPTimeout bounds each shipping request when HTTPSource.Client
// is nil.
const DefaultHTTPTimeout = 10 * time.Second

func (s *HTTPSource) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return &http.Client{Timeout: DefaultHTTPTimeout}
}

// get issues one GET and returns the body, translating 410 Gone into
// storage.ErrSegmentGone.
func (s *HTTPSource) get(path string) ([]byte, error) {
	resp, err := s.client().Get(s.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusGone:
		return nil, storage.ErrSegmentGone
	case http.StatusConflict:
		return nil, fmt.Errorf("%w: %s", ErrFenced, body)
	default:
		return nil, fmt.Errorf("repl: %s: %s: %s", path, resp.Status, body)
	}
}

// Segments polls the server's listing, piggybacking the latest
// acknowledgement.
func (s *HTTPSource) Segments() ([]storage.WALSegmentInfo, error) {
	path := "/repl/v1/segments"
	if a := s.ack.Load(); a != nil {
		path += "?ack=" + strconv.FormatUint(a.LSN, 10) +
			"&epoch=" + strconv.FormatUint(a.Epoch, 10) +
			"&follower=" + url.QueryEscape(a.Follower)
	}
	body, err := s.get(path)
	if err != nil {
		return nil, err
	}
	var out listingJSON
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("repl: decoding segment listing: %w", err)
	}
	s.tip.Store(out.Tip)
	segs := make([]storage.WALSegmentInfo, 0, len(out.Segments))
	for _, e := range out.Segments {
		segs = append(segs, storage.WALSegmentInfo{
			Index: e.Index, FirstLSN: e.FirstLSN, Size: e.Size, Sealed: e.Sealed,
			Epoch: e.Epoch,
		})
	}
	return segs, nil
}

// ReadAt fetches a raw byte range of one segment.
func (s *HTTPSource) ReadAt(seg storage.WALSegmentInfo, off int64, max int) ([]byte, error) {
	return s.get(fmt.Sprintf("/repl/v1/segment?index=%d&first=%d&off=%d&max=%d",
		seg.Index, seg.FirstLSN, off, max))
}

// Healthy probes the server's health endpoint.
func (s *HTTPSource) Healthy() bool {
	resp, err := s.client().Get(s.Base + "/repl/v1/health")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Ack records the follower's durable frontier (and identity and epoch) for
// the next listing poll. Delivery is deferred, so a fencing rejection
// surfaces as ErrFenced from a later Segments call, not from Ack itself.
func (s *HTTPSource) Ack(info AckInfo) error {
	s.ack.Store(&info)
	return nil
}

// TipLSN reports the primary tip from the most recent listing.
func (s *HTTPSource) TipLSN() uint64 { return s.tip.Load() }
