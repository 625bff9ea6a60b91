package coord

import (
	"strings"
	"testing"
)

// FuzzVerifySignature checks the webhook receiver's signature check on
// arbitrary secrets, bodies and headers: it never panics, accepts exactly
// Sign's header for the secret and body, and so rejects any header that
// differs from it in one byte, an upper-case hex digit included, or is
// one byte short or long.
func FuzzVerifySignature(f *testing.F) {
	body := []byte(`{"subscription":"sub-1","hash":"ab12","result":{}}`)
	f.Add([]byte("s3cret"), body, Sign([]byte("s3cret"), body))
	f.Add([]byte("s3cret"), body, strings.ToUpper(Sign([]byte("s3cret"), body)))
	f.Add([]byte("s3cret"), body, Sign([]byte("other"), body))
	f.Add([]byte{}, []byte{}, "sha256=")
	f.Add([]byte{}, []byte{}, "")
	f.Fuzz(func(t *testing.T, secret, body []byte, header string) {
		want := Sign(secret, body)
		if got := VerifySignature(secret, body, header); got != (header == want) {
			t.Fatalf("VerifySignature(%q) = %v; Sign gives %q", header, got, want)
		}
		if !VerifySignature(secret, body, want) {
			t.Fatalf("Sign's own header %q does not verify", want)
		}
		bad := []string{want[:len(want)-1], want + "0"}
		for i := range want {
			for _, b := range []byte{want[i] ^ 1, want[i] ^ 0x20} {
				bad = append(bad, want[:i]+string([]byte{b})+want[i+1:])
			}
		}
		for _, h := range bad {
			if VerifySignature(secret, body, h) {
				t.Fatalf("header %q verifies; Sign gives %q", h, want)
			}
		}
	})
}
