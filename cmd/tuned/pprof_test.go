package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// withPprof answers the profile index and its named handlers itself and
// hands every other path to the daemon's handler untouched.
func TestWithPprofRoutes(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Inner", r.URL.Path)
		http.NotFound(w, r)
	})
	h := withPprof(inner)
	for _, c := range []struct {
		path  string
		code  int
		inner bool
	}{
		{"/debug/pprof/", http.StatusOK, false},
		{"/debug/pprof/cmdline", http.StatusOK, false},
		{"/debug/pprof/goroutine?debug=1", http.StatusOK, false},
		{"/healthz", http.StatusNotFound, true},
		{"/v1/tune", http.StatusNotFound, true},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		if rec.Code != c.code || (rec.Header().Get("X-Inner") != "") != c.inner {
			t.Errorf("%s: %d, inner %q; want %d, inner %t", c.path, rec.Code, rec.Header().Get("X-Inner"), c.code, c.inner)
		}
	}
}
