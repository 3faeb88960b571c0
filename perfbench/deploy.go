package main

import (
	"errors"
	"io"
	"log"
	"net"
	"net/http"
)

// httpServer is one loopback listener serving a handler in this process.
type httpServer struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

// startHTTP serves h on a fresh loopback port.
func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("perfbench: serve %s: %v", s.url, err)
		}
	}()
	return s, nil
}

// close stops the listener and every connection, and waits for the serving
// goroutine to end.
func (s *httpServer) close() {
	s.hs.Close() //nolint:errcheck // closing a loopback listener
	<-s.done
}
