// Package api holds the HTTP conventions that mapd, maprouter and
// mapclient share: compact JSON answers, one error body, Retry-After in
// whole seconds, capped and strictly decoded request bodies, and JSON
// answers for requests that no route matches.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
)

// MaxBody is the default request-body cap in bytes: one oversized
// inline edge list or graph upload must not exhaust a server's memory.
const MaxBody = 64 << 20

// ErrorBody is the JSON body of every answer outside 2xx.
type ErrorBody struct {
	Error string `json:"error"` // what failed, as text
	// JobIDs lists the jobs a failed batch queued, which keep running.
	JobIDs []string `json:"job_ids,omitempty"`
}

// WriteJSON answers with status and v encoded as compact JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and an ErrorBody of err and jobIDs.
func WriteError(w http.ResponseWriter, status int, err error, jobIDs ...string) {
	WriteJSON(w, status, ErrorBody{Error: err.Error(), JobIDs: jobIDs})
}

// SetRetryAfter tells the client, before the answer is written, to
// come back in secs seconds.
func SetRetryAfter(w http.ResponseWriter, secs int) {
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// ReadBody reads r's body whole, refusing one of more than limit bytes
// even when its JSON value ends earlier, into a slice of exactly its
// length: the router keeps job bodies for failover.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n >= 0 && n <= limit {
		buf := make([]byte, n)
		_, err := io.ReadFull(body, buf)
		return buf, err
	}
	buf, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(buf), nil
}

// DecodeJSON decodes the first JSON value of r's body, read up to limit
// bytes, into v, refusing fields v does not have.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Handler serves mux, except that a request none of its routes matches
// gets an ErrorBody at the status mux answers it with: 404, or 405
// with mux's Allow header.
func Handler(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The pattern is empty for 404s, 405s and some redirects: mux's
		// own answer, kept in the standard in-memory ResponseWriter,
		// tells them apart.
		if h, pattern := mux.Handler(r); pattern == "" {
			ans := httptest.NewRecorder()
			h.ServeHTTP(ans, r)
			if ans.Code == http.StatusNotFound || ans.Code == http.StatusMethodNotAllowed {
				if allow := ans.Header().Get("Allow"); allow != "" {
					w.Header().Set("Allow", allow)
				}
				WriteError(w, ans.Code, fmt.Errorf("%s %s: %s", r.Method, r.URL.Path, strings.ToLower(http.StatusText(ans.Code))))
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
}
