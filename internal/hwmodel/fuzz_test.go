package hwmodel

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeLUTJSON feeds the LUT artifact decoder mutated artifacts. A
// mutated file almost never keeps a valid checksum, so each input that
// parses into the schema is decoded again with its CRC re-stamped, which
// lets mutations reach the config, entry and scale validators. Invariants:
// no panic, and an accepted artifact re-encodes to one that decodes to the
// same table and serving-latency fit.
func FuzzDecodeLUTJSON(f *testing.F) {
	l := testLUT()
	for _, sched := range []*SchedFit{nil, {FlushMS: 1.25, RowMS: 0.0625}} {
		data, err := l.EncodeJSON(sched)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The shapes TestLUTFileRejectsCorruption feeds: a truncated artifact,
	// non-JSON bytes, and schema-valid bodies that fail one check each.
	valid, err := l.EncodeJSON(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("PASCORR2 this is not a LUT"))
	f.Add([]byte(`{"format":"PASLUT0","entries":{}}`))
	f.Add([]byte(`{"format":"PASLUT1","config":{"FreqHz":0},"entries":{"k":{"total_sec":-1}},"scales":{"2PC-Conv":-2}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkLUTDecode(t, data)
		var lf lutFile
		if json.Unmarshal(data, &lf) != nil {
			return
		}
		crc, err := lf.bodyCRC()
		if err != nil {
			return
		}
		lf.CRC = crc
		stamped, err := json.Marshal(lf)
		if err != nil {
			t.Fatalf("re-marshal a parsed artifact: %v", err)
		}
		checkLUTDecode(t, stamped)
	})
}

// checkLUTDecode decodes data and, when it is accepted, checks that the
// re-encoding decodes to the same table.
func checkLUTDecode(t *testing.T, data []byte) {
	l, sched, err := DecodeLUTJSON(data)
	if err != nil {
		return
	}
	enc, err := l.EncodeJSON(sched)
	if err != nil {
		t.Fatalf("accepted artifact does not re-encode: %v", err)
	}
	again, againSched, err := DecodeLUTJSON(enc)
	if err != nil {
		t.Fatalf("re-encoding does not decode: %v", err)
	}
	// The encoder omits an empty scale map, so it comes back nil: the
	// same table.
	if len(l.Scales) == 0 {
		l.Scales = nil
	}
	if !reflect.DeepEqual(again, l) || !reflect.DeepEqual(againSched, sched) {
		t.Fatalf("re-encoding decodes to another table:\n got  %+v %+v\n want %+v %+v", again, againSched, l, sched)
	}
}
