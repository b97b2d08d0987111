package origin

import (
	"errors"
	"testing"

	"cachecloud/internal/core"
	"cachecloud/internal/document"
	"cachecloud/internal/trace"
)

func testDocs() []document.Document {
	return []document.Document{
		{URL: "http://s/a", Size: 1000},
		{URL: "http://s/b", Size: 2000, Version: 5},
	}
}

func TestDocumentCatalog(t *testing.T) {
	s := New(testDocs())
	a, err := s.Fetch("http://s/a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 1 {
		t.Fatalf("zero version not defaulted: %d", a.Version)
	}
	b, _ := s.Fetch("http://s/b")
	if b.Version != 5 {
		t.Fatalf("explicit version lost: %d", b.Version)
	}
	if _, err := s.Fetch("nope"); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("err = %v, want ErrUnknownDocument", err)
	}
}

// TestFetchAccounting counts a group miss's bytes the way the simulator
// does: from the documents Fetch returns.
func TestFetchAccounting(t *testing.T) {
	s := New(testDocs())
	var bytes int64
	for _, u := range []string{"http://s/a", "http://s/b"} {
		d, err := s.Fetch(u)
		if err != nil {
			t.Fatal(err)
		}
		bytes += d.Size
	}
	if _, err := s.Fetch("nope"); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("err = %v", err)
	}
	if bytes != 3000 {
		t.Fatalf("bytes = %d, want 3000", bytes)
	}
}

func TestPublishUpdateNoClouds(t *testing.T) {
	s := New(testDocs())
	out, err := s.PublishUpdate("http://s/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Doc.Version != 2 || out.ServerBytes != 0 || out.HoldersNotified != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	d, _ := s.Fetch("http://s/a")
	if d.Version != 2 {
		t.Fatalf("catalog version = %d, want 2", d.Version)
	}
	if _, err := s.PublishUpdate("nope", 0); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublishUpdatePropagatesToClouds(t *testing.T) {
	s := New(testDocs())
	cloud, err := core.New(core.Config{NumRings: 2, IntraGen: 100}, trace.CacheNames(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCloud(cloud)
	if s.NumClouds() != 1 {
		t.Fatal("cloud not attached")
	}

	// cache-01 holds document a.
	d, _ := s.Fetch("http://s/a")
	if _, err := cloud.Cache("cache-01").Put(document.Copy{Doc: d}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cloud.RegisterHolder(d.URL, "cache-01"); err != nil {
		t.Fatal(err)
	}

	out, err := s.PublishUpdate(d.URL, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.ServerBytes != 1000 {
		t.Fatalf("server bytes = %d, want 1000 (one message per cloud)", out.ServerBytes)
	}
	if out.HoldersNotified != 1 || out.FanoutBytes != 1000 {
		t.Fatalf("outcome = %+v", out)
	}
	got, ok := cloud.Cache("cache-01").Peek(d.URL)
	if !ok || got.Doc.Version != 2 {
		t.Fatalf("holder not refreshed: %+v", got)
	}
}

func TestPublishUpdateMultipleClouds(t *testing.T) {
	s := New(testDocs())
	for i := 0; i < 3; i++ {
		cloud, err := core.New(core.Config{NumRings: 1, IntraGen: 100}, []string{
			trace.CacheNames(6)[2*i], trace.CacheNames(6)[2*i+1],
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.AttachCloud(cloud)
	}
	out, err := s.PublishUpdate("http://s/b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.ServerBytes != 3*2000 {
		t.Fatalf("server bytes = %d, want one message per cloud", out.ServerBytes)
	}
}
