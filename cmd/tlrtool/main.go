// Command tlrtool manages compressed-kernel files: it runs the §6.1
// pre-processing (synthesize → Hilbert-sort → TLR-compress) and stores the
// result as a paged TLRP file — the format opstore, mddrun -store-path and
// mddserve -store-dir read — and prints stats of existing files from
// their verified index.
//
//	tlrtool -compress kernel.tlrp -nb 48 -acc 1e-3
//	tlrtool -info kernel.tlrp
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/seismic"
	"repro/internal/tlrio"
)

func compress(w io.Writer, path string, opts seismic.Options, nb int, acc float64) error {
	fmt.Fprintf(w, "synthesizing %dx%d survey and compressing its frequency matrices (nb=%d, acc=%g)...\n",
		opts.Geom.NumSources(), opts.Geom.NumReceivers(), nb, acc)
	pipe, err := core.BuildPipeline(core.PipelineOptions{Dataset: opts, TileSize: nb, Accuracy: acc})
	if err != nil {
		return err
	}
	if err := pipe.WriteStore(path, nil); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d frequency matrices, %.2f MB on disk, %.2fx compression vs dense\n",
		path, pipe.DS.NumFreqs(), float64(st.Size())/1e6, pipe.Provenance.CompressionRatio())
	return nil
}

// info prints per-matrix stats from the file's CRC-verified index; no
// tile page is read.
func info(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	pf, err := tlrio.OpenPaged(f, st.Size())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d frequency matrices (index checksum OK)\n", path, len(pf.Mats))
	if len(pf.Mats) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%10s %10s %8s %10s %10s %12s\n",
		"freq (Hz)", "shape", "nb", "max rank", "avg rank", "compression")
	var total, dense int64
	for i, pm := range pf.Mats {
		var tlrBytes int64
		var maxRank, sumRank int
		for idx, pt := range pm.Tiles {
			tlrBytes += pm.TileBytes(idx)
			maxRank = max(maxRank, pt.Rank)
			sumRank += pt.Rank
		}
		denseBytes := int64(pm.M) * int64(pm.N) * 8
		total += tlrBytes
		dense += denseBytes
		if i%10 == 0 || i == len(pf.Mats)-1 {
			fmt.Fprintf(w, "%10.2f %6dx%-4d %7d %10d %10.1f %11.2fx\n",
				pm.Freq, pm.M, pm.N, pm.NB, maxRank, float64(sumRank)/float64(len(pm.Tiles)),
				float64(denseBytes)/float64(tlrBytes))
		}
	}
	fmt.Fprintf(w, "total: %.2f MB compressed vs %.2f MB dense (%.2fx)\n",
		float64(total)/1e6, float64(dense)/1e6, float64(dense)/float64(total))
	return nil
}

func main() {
	log.SetFlags(0)
	comp := flag.String("compress", "", "synthesize, compress, and write a kernel file")
	nb := flag.Int("nb", 48, "tile size for -compress")
	acc := flag.Float64("acc", 1e-3, "tile accuracy for -compress")
	inf := flag.String("info", "", "print stats of a kernel file")
	flag.Parse()
	var err error
	switch {
	case *comp != "":
		err = compress(os.Stdout, *comp, seismic.DemoOptions(), *nb, *acc)
	case *inf != "":
		err = info(os.Stdout, *inf)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}
