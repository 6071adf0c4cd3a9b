package frontend

import (
	"encoding/json"
	"net/http"
)

// maxBody bounds an ingress request body; scripts carry three integers.
const maxBody = 1 << 16

// NewHandler exposes the frontend over HTTP:
//
//	POST /v1/rank   {"seq":N,"at_ns":T,"total":M} -> Resp (503 when shed)
//	POST /v1/dnn    same shape, DNN pipeline
//	POST /v1/kv     same shape, on-fabric KV cache (404 unless enabled)
//	GET  /v1/stats  Stats snapshot
//	GET  /healthz   liveness
//
// In replay mode at_ns is the virtual arrival time, below ReplayHorizon,
// and total the script length; in real-time mode both are ignored and
// the request is injected at wall arrival.
func NewHandler(f *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rank", f.handlePipeline("rank"))
	mux.HandleFunc("POST /v1/dnn", f.handlePipeline("dnn"))
	mux.HandleFunc("POST /v1/kv", f.handlePipeline("kv"))
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

func (f *Service) handlePipeline(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pl := f.pipeline(name)
		if pl == nil {
			writeJSON(w, http.StatusNotFound, Resp{Error: badPipeline(name).Error()})
			return
		}
		var req inReq
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, Resp{Error: "bad request body: " + err.Error()})
			return
		}
		// The responder fires exactly once, from the sim thread; the
		// buffered channel keeps that thread from ever blocking on a slow
		// client connection.
		ch := make(chan Resp, 1)
		if !f.drv.submit(pl, req, func(resp Resp) { ch <- resp }) {
			writeJSON(w, http.StatusServiceUnavailable, Resp{
				Seq: req.Seq, Pipeline: name, Error: "service unavailable",
			})
			return
		}
		resp := <-ch
		status := http.StatusOK
		if resp.Error != "" {
			status = http.StatusServiceUnavailable
		} else if !resp.Admitted {
			status = http.StatusServiceUnavailable // shed
		}
		writeJSON(w, status, resp)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
