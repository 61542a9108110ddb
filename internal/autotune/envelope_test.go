package autotune

import (
	"encoding/json"
	"strings"
	"testing"
)

func envelopeEntries(t *testing.T, kinds ...string) []CacheEntry {
	t.Helper()
	entries := make([]CacheEntry, len(kinds))
	for i, k := range kinds {
		if err := json.Unmarshal([]byte(validEntryJSON(k)), &entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return entries
}

// EncodeEntries/DecodeEntries is the replication and hinted-handoff wire
// format; it must round-trip entries exactly and carry a verifying checksum.
func TestEntryEnvelopeRoundTrip(t *testing.T) {
	entries := envelopeEntries(t, "direct", "fft")
	data, err := EncodeEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"checksum":"crc32c:`) {
		t.Fatalf("envelope missing checksum: %s", data)
	}
	back, err := DecodeEntries(data)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(entries)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Fatalf("entries changed over the wire:\n%s\n%s", a, b)
	}

	// The envelope is byte-compatible with Save's on-disk form: a cache can
	// load it directly.
	c := NewCache()
	if err := c.Load(strings.NewReader(string(data))); err != nil {
		t.Fatalf("Load rejected EncodeEntries output: %v", err)
	}
}

func TestDecodeEntriesRejects(t *testing.T) {
	good := envelopeEntries(t, "direct")
	env, err := EncodeEntries(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string]string{
		"garbage":       `{]`,
		"wrong version": `{"version":1,"entries":[]}`,
		"bad checksum":  strings.Replace(string(env), `"checksum":"crc32c:`, `"checksum":"crc32c:0`, 1),
		"bad entry":     `{"version":3,"entries":[` + validEntryJSON("karatsuba") + `]}`,
		"torn entry": `{"version":3,"entries":[` + validEntryJSON("direct") + `,` +
			strings.Replace(validEntryJSON("fft"), `"Stride":1`, `"Stride":0`, 1) + `]}`,
	} {
		if _, err := DecodeEntries([]byte(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// PutEntries is all-or-nothing: one invalid entry must leave the cache
// untouched, exactly like Load.
func TestPutEntriesAllOrNothing(t *testing.T) {
	good := envelopeEntries(t, "direct", "fft")
	c := NewCache()
	if err := c.PutEntries(good); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache has %d entries, want 2", n)
	}
	mixed := append(envelopeEntries(t, "igemm"), CacheEntry{Arch: "V100", Kind: "no-such-kind"})
	c2 := NewCache()
	if err := c2.PutEntries(mixed); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if n := c2.Len(); n != 0 {
		t.Fatalf("rejected batch left %d entries behind", n)
	}
}
