package cpu

import (
	"encoding/binary"
	"testing"

	"activepages/internal/asm"
	"activepages/internal/isa"
	"activepages/internal/mem"
	"activepages/internal/memsys"
)

// imageOf wraps raw little-endian words in an MSS1 image of one segment
// at addr whose entry is the segment's start.
func imageOf(addr uint64, words ...uint32) []byte {
	var seg []byte
	for _, w := range words {
		seg = binary.LittleEndian.AppendUint32(seg, w)
	}
	return asm.MarshalImage(&asm.Image{Entry: addr, Segments: []asm.Segment{{Addr: addr, Bytes: seg}}})
}

// FuzzImage feeds arbitrary bytes down the path aprun and apasm -dis take
// with a binary: asm.UnmarshalImage, the disassembly of every segment word,
// then Core.Load and a bounded Run. No image may panic it: a bad image is
// an error from UnmarshalImage, a word that does not decode, or an error
// from Run.
func FuzzImage(f *testing.F) {
	prog, err := asm.Assemble("main:\n\tli r4, 123\n\tli r2, 1\n\tsyscall\n" +
		"\tmovd.gm m1, r4\n\tpaddsw m2, m1, m1\n\tmovd.mg r5, m2\n\thalt\n")
	if err != nil {
		f.Fatal(err)
	}
	halt := uint32(isa.OpHalt) << 26
	for _, seed := range [][]byte{
		asm.MarshalImage(prog),
		// A packed op whose A field names m16 of the eight m registers.
		imageOf(asm.DefaultTextBase, uint32(isa.OpPaddb)<<26|16<<21|1<<16|2<<11, halt),
		// A segment at the top of the address space.
		imageOf(1<<64-16, halt, halt, halt, halt),
		// An entry word that decodes as an invalid opcode.
		imageOf(asm.DefaultTextBase, 0xFFFFFFFF, halt),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := asm.UnmarshalImage(data)
		if err != nil {
			return
		}
		for _, seg := range img.Segments {
			for i := 0; i+4 <= len(seg.Bytes); i += 4 {
				if in, err := isa.Decode(binary.LittleEndian.Uint32(seg.Bytes[i:])); err == nil {
					_ = in.String()
				}
			}
		}
		c := New(DefaultConfig(), memsys.New(memsys.DefaultConfig()), mem.NewStore())
		c.Load(img)
		c.Run(2000)
	})
}
