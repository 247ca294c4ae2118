package gsbl

import (
	"encoding/xml"
	"reflect"
	"testing"
)

// FuzzParseAppDescription feeds arbitrary bytes to the application
// description parser: it must return an error or a description, never
// panic, and an accepted description must survive its own XML() — the
// re-parse is equal, the element name aside (XML writes the canonical
// one whatever namespace the input carried). testdata/fuzz holds what
// the fuzzer found: an empty <option/> that XML() used to drop.
func FuzzParseAppDescription(f *testing.F) {
	garli, err := GarliApp().XML()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(garli)
	f.Add([]byte("<gridApplication></gridApplication>"))
	f.Add([]byte(`<gridApplication name="x"><parameter name="p"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseAppDescription(data)
		if err != nil {
			return
		}
		out, err := a.XML()
		if err != nil {
			t.Fatalf("accepted description does not marshal: %v", err)
		}
		back, err := ParseAppDescription(out)
		if err != nil {
			t.Fatalf("own XML() refused: %v\n%s", err, out)
		}
		a.XMLName, back.XMLName = xml.Name{}, xml.Name{}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("round trip changed the description:\n got %+v\nwant %+v", back, a)
		}
	})
}
