package xmltree

import "bytes"

// CutElements cuts content made only of elements written back to back,
// as Append writes a forest of elements, into one slice per element,
// without building any node. ok is false when the content holds
// anything else: text between the elements, a comment, a processing
// instruction or a CDATA section at any depth, or an element left
// open. It checks the nesting of tags, not names, references or which
// element an end tag closes, so an element it accepts may still fail to
// Parse; every element that does parse is the one Parse would read at
// that place in the content. Each slice's capacity ends with the
// element, so appending to one never writes into the next.
func CutElements(b []byte) (elems [][]byte, ok bool) {
	for i := 0; i < len(b); {
		if b[i] != '<' || i+1 == len(b) || nameTable[b[i+1]]&nameStart == 0 {
			return nil, false
		}
		start, depth := i, 0
		for {
			// b[i] is the '<' of a tag.
			switch b[i+1] {
			case '/':
				i += 2
				for i < len(b) && b[i] != '>' {
					i++
				}
				if i == len(b) {
					return nil, false
				}
				i++
				depth--
			case '!', '?':
				return nil, false
			default:
				end, empty := tagEnd(b, i+1)
				if end < 0 {
					return nil, false
				}
				i = end
				if !empty {
					depth++
				}
			}
			if depth == 0 {
				break
			}
			lt := bytes.IndexByte(b[i:], '<')
			if lt < 0 || i+lt+1 == len(b) {
				return nil, false
			}
			i += lt
		}
		if elems == nil {
			// Rows of one reply are alike: size the list from the first.
			elems = make([][]byte, 0, len(b)/(i-start)+1)
		}
		elems = append(elems, b[start:i:i])
	}
	return elems, true
}

// tagEnd finds the end of the start tag whose name begins at b[i]: the
// offset just past its '>' (-1 when there is none), and whether it is
// an empty-element tag. A '>' or '/' inside a quoted attribute value
// belongs to the value.
func tagEnd(b []byte, i int) (end int, empty bool) {
	for ; i < len(b); i++ {
		switch c := b[i]; c {
		case '>':
			return i + 1, b[i-1] == '/'
		case '"', '\'':
			closing := bytes.IndexByte(b[i+1:], c)
			if closing < 0 {
				return -1, false
			}
			i += 1 + closing
		}
	}
	return -1, false
}
