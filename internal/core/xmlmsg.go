package core

import (
	"fmt"
	"strconv"
	"strings"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/jsescape"
)

// The XML response content of Figure 4. Every payload travels inside a
// CDATA section encoded with JavaScript escape(), which guarantees the
// bytes are free of XML metacharacters (paper §4.1.2: "We use the escape
// encoding function and CDATA section to ensure that the response data can
// be precisely contained in an application/xml message").

// TopElement carries a top-level child of the cloned document (body,
// frameset, or noframes): its attribute name-value list and innerHTML.
type TopElement struct {
	Attrs []dom.Attr
	Inner string
}

// HeadChild carries one child element of the document head. Children are
// transmitted separately so the snippet can rebuild the head element by
// element on browsers whose head.innerHTML is read-only (paper §4.2.2).
type HeadChild struct {
	Tag   string
	Attrs []dom.Attr
	Inner string
}

// NewContent is one synchronization message from RCB-Agent to a
// participant.
type NewContent struct {
	// DocTime is the timestamp of the document content on the host browser
	// (milliseconds since the epoch in the paper; any monotonically
	// increasing value works for the protocol).
	DocTime int64
	// HasDocument reports whether this message carries document content.
	// Action-only messages (pointer mirroring with no page change) have
	// HasDocument == false.
	HasDocument bool
	Head        []HeadChild
	Body        *TopElement
	FrameSet    *TopElement
	NoFrames    *TopElement
	// UserActions carries other users' actions for mirroring.
	UserActions []Action
}

// encodeAttrs flattens an attribute list into form encoding, preserving
// order.
func encodeAttrs(attrs []dom.Attr) string {
	fields := make([]httpwire.FormField, len(attrs))
	for i, a := range attrs {
		fields[i] = httpwire.FormField{Name: a.Name, Value: a.Value}
	}
	return httpwire.EncodeForm(fields)
}

func decodeAttrs(s string) []dom.Attr {
	fields := httpwire.ParseForm(s)
	if len(fields) == 0 {
		return nil
	}
	attrs := make([]dom.Attr, len(fields))
	for i, f := range fields {
		attrs[i] = dom.Attr{Name: f.Name, Value: f.Value}
	}
	return attrs
}

// headChildPayload packs tag, attribute list and innerHTML into the single
// string that is escape()d into the CDATA section.
func headChildPayload(h HeadChild) string {
	return h.Tag + "\n" + encodeAttrs(h.Attrs) + "\n" + h.Inner
}

func parseHeadChildPayload(s string) (HeadChild, error) {
	parts := strings.SplitN(s, "\n", 3)
	if len(parts) != 3 {
		return HeadChild{}, fmt.Errorf("core: malformed head child payload")
	}
	return HeadChild{Tag: parts[0], Attrs: decodeAttrs(parts[1]), Inner: parts[2]}, nil
}

func topElementPayload(t *TopElement) string {
	return encodeAttrs(t.Attrs) + "\n" + t.Inner
}

func parseTopElementPayload(s string) (*TopElement, error) {
	parts := strings.SplitN(s, "\n", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("core: malformed top element payload")
	}
	return &TopElement{Attrs: decodeAttrs(parts[0]), Inner: parts[1]}, nil
}

// closeNewContent is the fixed tail of every Figure 4 message. Prepared
// content records where it starts so per-participant userActions can be
// spliced in front of it without re-marshaling (see preparedMsg).
const closeNewContent = "</newContent>\n"

// Marshal renders the message in the exact shape of Figure 4.
func (c *NewContent) Marshal() []byte {
	return c.AppendMarshal(make([]byte, 0, 1<<10))
}

// AppendMarshal appends the Figure 4 rendering of the message to dst and
// returns the extended slice. Payloads are escape()d directly into dst —
// no intermediate strings beyond the payload packing itself.
func (c *NewContent) AppendMarshal(dst []byte) []byte {
	dst = append(dst, "<?xml version='1.0' encoding='utf-8'?>\n<newContent>\n<docTime>"...)
	dst = strconv.AppendInt(dst, c.DocTime, 10)
	dst = append(dst, "</docTime>\n"...)
	if c.HasDocument {
		dst = append(dst, "<docContent>\n"...)
		dst = appendHead(dst, c.Head)
		for i, te := range c.regionFields() {
			if *te != nil {
				dst = appendCDATA(dst, regions[i].full, 0, topElementPayload(*te))
			}
		}
		dst = append(dst, "</docContent>\n"...)
	}
	if len(c.UserActions) > 0 {
		dst = appendUserActions(dst, c.UserActions)
	}
	dst = append(dst, closeNewContent...)
	return dst
}

// regions names the three top-level regions both messages carry, in wire
// order: the document element's tag, the newContent element carrying its
// snapshot, and the deltaContent element carrying its patch script.
var regions = [3]struct{ tag, full, patch string }{
	{"body", "docBody", "bodyPatch"},
	{"frameset", "docFrameSet", "framesetPatch"},
	{"noframes", "docNoFrames", "noframesPatch"},
}

// regionIndex returns tag's index in regions, or -1 for any other tag.
func regionIndex(tag string) int {
	for i, r := range regions {
		if r.tag == tag {
			return i
		}
	}
	return -1
}

// regionFields returns the message's region fields in the order of regions.
func (c *NewContent) regionFields() [3]**TopElement {
	return [3]**TopElement{&c.Body, &c.FrameSet, &c.NoFrames}
}

// appendCDATA appends one envelope element, <name>CDATA(escape(payload))
// </name>, the shape every variable payload of newContent and deltaContent
// rides in. A positive n numbers the element name (hChild1, hChild2, ...).
func appendCDATA(dst []byte, name string, n int, payload string) []byte {
	dst = append(dst, '<')
	dst = appendElementName(dst, name, n)
	dst = append(dst, "><![CDATA["...)
	dst = jsescape.AppendEscape(dst, payload)
	dst = append(dst, "]]></"...)
	dst = appendElementName(dst, name, n)
	return append(dst, ">\n"...)
}

func appendElementName(dst []byte, name string, n int) []byte {
	dst = append(dst, name...)
	if n > 0 {
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return dst
}

// appendHead appends a docHead section of numbered hChild elements.
func appendHead(dst []byte, head []HeadChild) []byte {
	dst = append(dst, "<docHead>\n"...)
	for i, h := range head {
		dst = appendCDATA(dst, "hChild", i+1, headChildPayload(h))
	}
	return append(dst, "</docHead>\n"...)
}

// appendUserActions appends a userActions element — shared by full marshals
// and the per-participant splice of preparedMsg.WithUserActions.
func appendUserActions(dst []byte, actions []Action) []byte {
	return appendCDATA(dst, "userActions", 0, EncodeActions(actions))
}

// Unmarshal parses a Figure 4 message. Payload CDATA content is escape()
// encoded, so a lightweight scanner suffices: no raw '<' can occur inside
// payloads.
func Unmarshal(data []byte) (*NewContent, error) {
	s := string(data)
	c := &NewContent{}
	docTime, ok := elementText(s, "docTime")
	if !ok {
		return nil, fmt.Errorf("core: message has no docTime")
	}
	t, err := strconv.ParseInt(strings.TrimSpace(docTime), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("core: bad docTime %q", docTime)
	}
	c.DocTime = t

	if content, ok := elementText(s, "docContent"); ok {
		c.HasDocument = true
		if headSec, ok := elementText(content, "docHead"); ok {
			if c.Head, err = parseHeadSection(headSec); err != nil {
				return nil, err
			}
		}
		for i, dst := range c.regionFields() {
			payload, ok := elementText(content, regions[i].full)
			if !ok {
				continue
			}
			if *dst, err = parseTopElementPayload(jsescape.Unescape(stripCDATA(payload))); err != nil {
				return nil, err
			}
		}
	}
	if payload, ok := elementText(s, "userActions"); ok {
		actions, err := DecodeActions(jsescape.Unescape(stripCDATA(payload)))
		if err != nil {
			return nil, err
		}
		c.UserActions = actions
	}
	return c, nil
}

// parseHeadSection parses the numbered hChild elements of a docHead section
// — shared by the full newContent and deltaContent unmarshalers.
func parseHeadSection(headSec string) ([]HeadChild, error) {
	var head []HeadChild
	for i := 1; ; i++ {
		payload, ok := elementText(headSec, "hChild"+strconv.Itoa(i))
		if !ok {
			break
		}
		h, err := parseHeadChildPayload(jsescape.Unescape(stripCDATA(payload)))
		if err != nil {
			return nil, err
		}
		head = append(head, h)
	}
	return head, nil
}

// elementText returns the text between <name> and </name> in s.
func elementText(s, name string) (string, bool) {
	open := "<" + name + ">"
	close := "</" + name + ">"
	i := strings.Index(s, open)
	if i < 0 {
		return "", false
	}
	rest := s[i+len(open):]
	j := strings.Index(rest, close)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// stripCDATA unwraps a <![CDATA[...]]> section, tolerating surrounding
// whitespace; non-CDATA text is returned as-is.
func stripCDATA(s string) string {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "<![CDATA[") && strings.HasSuffix(t, "]]>") {
		return t[len("<![CDATA[") : len(t)-len("]]>")]
	}
	return t
}

// ContentFromDocument extracts a NewContent message from a cloned document
// element, following the paper's extraction order: head children first,
// then the remaining top-level children (body, or frameset plus noframes).
func ContentFromDocument(root *dom.Node, docTime int64) *NewContent {
	c := &NewContent{DocTime: docTime, HasDocument: true}
	fields := c.regionFields()
	for _, child := range root.ChildElements() {
		if child.Tag == "head" {
			for _, hc := range child.ChildElements() {
				c.Head = append(c.Head, HeadChild{
					Tag:   hc.Tag,
					Attrs: append([]dom.Attr(nil), hc.Attrs...),
					Inner: dom.InnerHTML(hc),
				})
			}
		} else if i := regionIndex(child.Tag); i >= 0 {
			*fields[i] = &TopElement{Attrs: append([]dom.Attr(nil), child.Attrs...), Inner: dom.InnerHTML(child)}
		}
	}
	return c
}
