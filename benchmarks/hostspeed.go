package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"time"
)

// The sandbox this benchmark runs in is a slice of a shared host whose
// speed changes by a factor of up to four within an hour: other guests
// evict its caches (a fixed computation takes 1.5 times as long, with no
// steal time reported) or are given its processors (/proc/stat shows up to
// half of a second stolen). Runs of the same code minutes apart then differ
// by more than any regression bound. What the host takes away is measured
// rather than averaged over: a fixed reference computation is timed right
// before and after every stretch of measured traffic, while the traffic is
// paused, and every time is reported in reference milliseconds — the
// measured time scaled by how much faster or slower than refKernelMs the
// reference computation ran around it.
//
// The reference computation is the Go standard library's XML tokenizer
// reading a fixed document into a tree: allocation-heavy pointer-chasing
// code of the same kind as the system under test, but none of its code, so
// a change to the repository cannot move it.

// refKernelMs is the time the reference computation takes on the reference
// host, which is this sandbox in a quiet hour. A metric in reference
// milliseconds is what the measurement would have read on that host.
const refKernelMs = 12.0

// refItems sizes the reference document so that a probe is short beside a
// slice of traffic.
const refItems = 2400

// refDoc is the document the reference computation reads; it depends on
// nothing, the seed included.
var refDoc = func() []byte {
	var b bytes.Buffer
	b.WriteString("<catalog>")
	for i := 0; i < refItems; i++ {
		fmt.Fprintf(&b, `<item id="k%d"><name>item number %d</name><price>%d</price>`+
			`<desc>lorem ipsum dolor sit amet consectetur adipiscing elit sed do</desc></item>`,
			i, i, (i*7919)%1000)
	}
	b.WriteString("</catalog>")
	return b.Bytes()
}()

type refNode struct {
	name string
	text string
	kids []*refNode
}

// hostProbe is one timing of the reference computation.
type hostProbe struct {
	wallMs float64
	cpuMs  float64 // this process's CPU time over the same stretch
}

// probeHost runs the reference computation once. Nothing else of the
// benchmark may be running: callers pause the traffic first.
func probeHost() hostProbe {
	cpu0, start := selfCPU(), time.Now()
	dec := xml.NewDecoder(bytes.NewReader(refDoc))
	root := &refNode{}
	stack := []*refNode{root}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			panic("reference document: " + err.Error())
		}
		top := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.StartElement:
			n := &refNode{name: t.Name.Local}
			top.kids = append(top.kids, n)
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			top.text += string(t)
		}
	}
	if len(root.kids) != 1 || len(root.kids[0].kids) != refItems {
		panic("reference computation read the wrong tree")
	}
	return hostProbe{wallMs: ms(time.Since(start)), cpuMs: (selfCPU() - cpu0) * 1000}
}

// hostSpeed is how fast the host ran between two probes, relative to the
// reference host: 1 on the reference host, 0.5 when everything takes twice
// as long. wall scales elapsed times, cpu scales CPU times, which a stolen
// processor does not lengthen but an evicted cache does.
type hostSpeed struct {
	wall, cpu float64
}

func speedBetween(before, after hostProbe) hostSpeed {
	return hostSpeed{
		wall: refKernelMs / ((before.wallMs + after.wallMs) / 2),
		cpu:  refKernelMs / ((before.cpuMs + after.cpuMs) / 2),
	}
}
