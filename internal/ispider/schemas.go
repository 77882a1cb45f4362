// Package ispider reconstructs the paper's case study (§2.4, §3): the
// iSpider proteomics integration of the Pedro, gpmDB and PepSeeker
// databases. It provides synthetic but structurally faithful versions
// of the three source databases (every table and column named by the
// paper's 26 intersection transformations, plus the wider schemas the
// classical 95-transformation reconstruction needs), the intersection
// plan driven by the 7 priority queries, the classical staged plan
// (GS1/GS2/GS3), and the Table 1 query set.
//
// Substitution note (see DESIGN.md): the real Pedro/gpmDB/PepSeeker
// instances are not redistributable; the experiments measure
// integration effort and query answerability, which depend on schema
// shape and population overlap, both of which the generator reproduces
// (seeded, deterministic).
package ispider

import (
	"fmt"
	"math/rand"

	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// Config sizes the synthetic instance populations.
type Config struct {
	// Seed drives all randomness; equal seeds give identical data.
	Seed int64
	// Proteins is the number of proteins per source.
	Proteins int
	// Searches is the number of search runs (db_search / path /
	// fileparameters rows) per source.
	Searches int
	// HitsPerSearch is the number of protein hits per search.
	HitsPerSearch int
	// PeptidesPerHit is the number of peptide hits per protein hit.
	PeptidesPerHit int
}

// DefaultConfig returns the configuration used by the tests: small
// enough for fast runs, large enough for every query to have answers.
func DefaultConfig() Config {
	return Config{Seed: 1, Proteins: 30, Searches: 3, HitsPerSearch: 8, PeptidesPerHit: 2}
}

// BenchConfig returns the larger configuration used by the benchmark
// harness.
func BenchConfig() Config {
	return Config{Seed: 1, Proteins: 120, Searches: 5, HitsPerSearch: 20, PeptidesPerHit: 3}
}

// Table1WarmConfig returns the case study at the size the benchmark's
// table1_warm workload runs it at (bench/fixtures.go), for
// BenchmarkServerTable1 alone: its B/op summed over Q1–Q7 and divided by
// seven is then that workload's alloc_kb_per_op, less the benchmark's
// own client.
func Table1WarmConfig() Config {
	return Config{Seed: 1, Proteins: 480, Searches: 20, HitsPerSearch: 20, PeptidesPerHit: 3}
}

// Shared workload constants: every source contains the designated
// accession, peptide sequence, organism and description keyword, so the
// seven priority queries have non-empty cross-source answers.
const (
	// SharedAccession is present in all three sources (Q1, Q5).
	SharedAccession = "P00042"
	// SharedPeptide is a peptide sequence identified in all sources
	// (Q4, Q5).
	SharedPeptide = "AQDLLVGK"
	// SharedOrganism tags a subset of proteins (Q3).
	SharedOrganism = "Homo sapiens"
	// GroupKeyword appears in a subset of descriptions (Q2).
	GroupKeyword = "kinase"
)

var organisms = []string{SharedOrganism, "Mus musculus", "Saccharomyces cerevisiae", "Escherichia coli"}

var descWords = []string{"putative", GroupKeyword, "membrane", "transport", "binding", "receptor", "ribosomal"}

const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// accession renders the i-th accession of the shared universe.
func accession(i int) string { return fmt.Sprintf("P%05d", i) }

// peptideSeq draws a random peptide sequence.
func peptideSeq(rng *rand.Rand) string {
	n := 6 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = aminoAcids[rng.Intn(len(aminoAcids))]
	}
	return string(b)
}

// description draws a random protein description; roughly one in three
// mentions the group keyword.
func description(rng *rand.Rand) string {
	w1 := descWords[rng.Intn(len(descWords))]
	w2 := descWords[rng.Intn(len(descWords))]
	return w1 + " " + w2 + " protein"
}

// sharedPool builds the peptide-sequence pool; index 0 is the shared
// peptide.
func sharedPool(rng *rand.Rand, n int) []string {
	pool := make([]string, n)
	pool[0] = SharedPeptide
	for i := 1; i < n; i++ {
		pool[i] = peptideSeq(rng)
	}
	return pool
}

// accessionWindow returns the accession indices a source draws from:
// overlapping windows over a universe sized cfg.Proteins*2 such that
// the ranges [0,1.2P), [0.6P,1.8P) and [P,2P) pairwise overlap, with
// SharedAccession (index 42 mod universe) forced into every source.
func accessionWindow(cfg Config, lo, hi float64) (int, int) {
	universe := cfg.Proteins * 2
	return int(lo * float64(universe) / 2), int(hi * float64(universe) / 2)
}

// BuildPedro constructs the synthetic Pedro database: the data capture
// model's core protein/search/hit tables with the column set used by
// both integration plans.
func BuildPedro(cfg Config) *rel.DB {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := sharedPool(rng, 24)
	db := rel.NewDB("Pedro")

	protein := db.MustCreateTable("protein", []rel.Column{
		{Name: "protein_id", Type: rel.Int},
		{Name: "accession_num", Type: rel.String},
		{Name: "description", Type: rel.String},
		{Name: "organism", Type: rel.String},
		{Name: "gene_name", Type: rel.String},
		{Name: "sequence", Type: rel.String},
		{Name: "mass", Type: rel.Float},
		{Name: "pi", Type: rel.Float},
		{Name: "orf_number", Type: rel.Int},
	}, "protein_id")
	dbSearch := db.MustCreateTable("db_search", []rel.Column{
		{Name: "db_search_id", Type: rel.Int},
		{Name: "username", Type: rel.String},
		{Name: "id_date", Type: rel.String},
		{Name: "database", Type: rel.String},
		{Name: "database_version", Type: rel.String},
		{Name: "parameters_file", Type: rel.String},
		{Name: "program", Type: rel.String},
		{Name: "taxonomy", Type: rel.String},
		{Name: "n_terminal_aa", Type: rel.String},
		{Name: "c_terminal_aa", Type: rel.String},
		{Name: "fixed_modifications", Type: rel.String},
		{Name: "variable_modifications", Type: rel.String},
		{Name: "peptide_tolerance", Type: rel.Float},
		{Name: "ms_ms_tolerance", Type: rel.Float},
	}, "db_search_id")
	proteinHit := db.MustCreateTable("proteinhit", []rel.Column{
		{Name: "proteinhit_id", Type: rel.Int},
		{Name: "protein", Type: rel.Int},
		{Name: "db_search", Type: rel.Int},
		{Name: "score", Type: rel.Float},
		{Name: "expectation", Type: rel.Float},
		{Name: "all_peptides_matched", Type: rel.Bool},
	}, "proteinhit_id")
	peptideHit := db.MustCreateTable("peptidehit", []rel.Column{
		{Name: "peptidehit_id", Type: rel.Int},
		{Name: "sequence", Type: rel.String},
		{Name: "score", Type: rel.Float},
		{Name: "probability", Type: rel.Float},
		{Name: "db_search", Type: rel.Int},
		{Name: "information", Type: rel.String},
		{Name: "charge", Type: rel.Int},
		{Name: "retention_time", Type: rel.Float},
		{Name: "mr_expt", Type: rel.Float},
		{Name: "mr_calc", Type: rel.Float},
	}, "peptidehit_id")
	experiment := db.MustCreateTable("experiment", []rel.Column{
		{Name: "experiment_id", Type: rel.Int},
		{Name: "title", Type: rel.String},
		{Name: "hypothesis", Type: rel.String},
		{Name: "exp_date", Type: rel.String},
	}, "experiment_id")
	sample := db.MustCreateTable("sample", []rel.Column{
		{Name: "sample_id", Type: rel.Int},
		{Name: "experiment", Type: rel.Int},
		{Name: "sample_description", Type: rel.String},
		{Name: "sample_organism", Type: rel.String},
	}, "sample_id")

	// Proteins: window [0, 1.2P) of the accession universe, plus the
	// shared accession.
	lo, hi := accessionWindow(cfg, 0, 1.2)
	accs := []string{SharedAccession}
	for i := lo; i < hi && len(accs) < cfg.Proteins; i++ {
		if a := accession(i); a != SharedAccession {
			accs = append(accs, a)
		}
	}
	for i, acc := range accs {
		org := organisms[rng.Intn(len(organisms))]
		if i%5 == 0 {
			org = SharedOrganism
		}
		protein.MustInsert(int64(1000+i), acc, description(rng), org,
			fmt.Sprintf("GENE%d", i), peptideSeq(rng)+peptideSeq(rng),
			20000+rng.Float64()*40000, 4+rng.Float64()*6, int64(rng.Intn(3)))
	}
	for j := 0; j < cfg.Searches; j++ {
		dbSearch.MustInsert(int64(100+j), fmt.Sprintf("user%d", j),
			fmt.Sprintf("2013-0%d-01", j+1), "SwissProt", "2013_0"+fmt.Sprint(j+1),
			fmt.Sprintf("params%d.xml", j), "SEQUEST", SharedOrganism,
			"R", "K", "Carbamidomethyl (C)", "Oxidation (M)",
			0.5+rng.Float64(), 0.2+rng.Float64())
	}
	hit := 0
	pep := 0
	for j := 0; j < cfg.Searches; j++ {
		for h := 0; h < cfg.HitsPerSearch; h++ {
			pid := int64(1000 + (hit % len(accs)))
			proteinHit.MustInsert(int64(5000+hit), pid, int64(100+j),
				10+rng.Float64()*90, rng.Float64(), hit%2 == 0)
			for p := 0; p < cfg.PeptidesPerHit; p++ {
				seq := pool[pep%len(pool)]
				peptideHit.MustInsert(int64(8000+pep), seq,
					5+rng.Float64()*50, rng.Float64(), int64(100+j),
					"ms/ms", int64(1+rng.Intn(3)), rng.Float64()*90,
					800+rng.Float64()*2000, 800+rng.Float64()*2000)
				pep++
			}
			hit++
		}
	}
	for e := 0; e < 2; e++ {
		experiment.MustInsert(int64(10+e), fmt.Sprintf("experiment %d", e),
			"differential expression", "2013-01-15")
		sample.MustInsert(int64(20+e), int64(10+e), "cell lysate", SharedOrganism)
	}
	mustFK(db, "proteinhit", "protein", "protein")
	mustFK(db, "proteinhit", "db_search", "db_search")
	mustFK(db, "peptidehit", "db_search", "db_search")
	mustFK(db, "sample", "experiment", "experiment")
	return db
}

// BuildGpmDB constructs the synthetic gpmDB database (X!Tandem result
// warehouse flavour): proseq/protein/path/peptide plus the
// spectrum-level tables the classical GS2 stage integrates.
func BuildGpmDB(cfg Config) *rel.DB {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	pool := sharedPool(rand.New(rand.NewSource(cfg.Seed)), 24)
	db := rel.NewDB("gpmDB")

	proseq := db.MustCreateTable("proseq", []rel.Column{
		{Name: "proseqid", Type: rel.Int},
		{Name: "label", Type: rel.String},
		{Name: "description", Type: rel.String},
		{Name: "seq", Type: rel.String},
		{Name: "taxon", Type: rel.String},
	}, "proseqid")
	protein := db.MustCreateTable("protein", []rel.Column{
		{Name: "proteinid", Type: rel.Int},
		{Name: "proseqid", Type: rel.Int},
		{Name: "expect", Type: rel.Float},
		{Name: "pathid", Type: rel.Int},
		{Name: "uid", Type: rel.String},
		{Name: "hitrank", Type: rel.Int},
	}, "proteinid")
	path := db.MustCreateTable("path", []rel.Column{
		{Name: "pathid", Type: rel.Int},
		{Name: "file", Type: rel.String},
		{Name: "run_date", Type: rel.String},
		{Name: "title", Type: rel.String},
	}, "pathid")
	peptide := db.MustCreateTable("peptide", []rel.Column{
		{Name: "peptideid", Type: rel.Int},
		{Name: "proteinid", Type: rel.Int},
		{Name: "seq", Type: rel.String},
		{Name: "expect", Type: rel.Float},
		{Name: "hyperscore", Type: rel.Float},
		{Name: "z", Type: rel.Int},
		{Name: "start", Type: rel.Int},
		{Name: "end", Type: rel.Int},
		{Name: "pathid", Type: rel.Int},
		{Name: "rt", Type: rel.Float},
		{Name: "delta", Type: rel.Float},
		{Name: "missed_cleavages", Type: rel.Int},
	}, "peptideid")
	aa := db.MustCreateTable("aa", []rel.Column{
		{Name: "aaid", Type: rel.Int},
		{Name: "peptideid", Type: rel.Int},
		{Name: "aatype", Type: rel.String},
		{Name: "at_position", Type: rel.Int},
		{Name: "modified", Type: rel.Bool},
	}, "aaid")
	spectrum := db.MustCreateTable("spectrum", []rel.Column{
		{Name: "spectrumid", Type: rel.Int},
		{Name: "pathid", Type: rel.Int},
		{Name: "precursor_mz", Type: rel.Float},
		{Name: "z", Type: rel.Int},
		{Name: "rt", Type: rel.Float},
		{Name: "total_intensity", Type: rel.Float},
		{Name: "scan_num", Type: rel.Int},
		{Name: "basepeak_mz", Type: rel.Float},
		{Name: "basepeak_intensity", Type: rel.Float},
	}, "spectrumid")
	peak := db.MustCreateTable("peak", []rel.Column{
		{Name: "peakid", Type: rel.Int},
		{Name: "spectrumid", Type: rel.Int},
		{Name: "mz", Type: rel.Float},
		{Name: "intensity", Type: rel.Float},
	}, "peakid")
	mod := db.MustCreateTable("mod", []rel.Column{
		{Name: "modid", Type: rel.Int},
		{Name: "peptideid", Type: rel.Int},
		{Name: "at_position", Type: rel.Int},
		{Name: "residue", Type: rel.String},
		{Name: "delta_mass", Type: rel.Float},
		{Name: "variable", Type: rel.Bool},
		{Name: "modname", Type: rel.String},
	}, "modid")
	histogram := db.MustCreateTable("histogram", []rel.Column{
		{Name: "histid", Type: rel.Int},
		{Name: "pathid", Type: rel.Int},
		{Name: "htype", Type: rel.String},
		{Name: "hvalues", Type: rel.String},
	}, "histid")
	param := db.MustCreateTable("param", []rel.Column{
		{Name: "paramid", Type: rel.Int},
		{Name: "pathid", Type: rel.Int},
		{Name: "pname", Type: rel.String},
		{Name: "pvalue", Type: rel.String},
	}, "paramid")
	ion := db.MustCreateTable("ion", []rel.Column{
		{Name: "ionid", Type: rel.Int},
		{Name: "peptideid", Type: rel.Int},
		{Name: "iontype", Type: rel.String},
		{Name: "mz", Type: rel.Float},
		{Name: "intensity", Type: rel.Float},
		{Name: "position", Type: rel.Int},
		{Name: "ioncharge", Type: rel.Int},
	}, "ionid")

	// Proteins: window [0.6P, 1.8P), plus the shared accession.
	lo, hi := accessionWindow(cfg, 0.6, 1.8)
	accs := []string{SharedAccession}
	for i := lo; i < hi && len(accs) < cfg.Proteins; i++ {
		if a := accession(i); a != SharedAccession {
			accs = append(accs, a)
		}
	}
	for i, acc := range accs {
		taxon := organisms[rng.Intn(len(organisms))]
		if i%4 == 0 {
			taxon = SharedOrganism
		}
		proseq.MustInsert(int64(2000+i), acc, description(rng),
			peptideSeq(rng)+peptideSeq(rng), taxon)
	}
	for j := 0; j < cfg.Searches; j++ {
		path.MustInsert(int64(300+j), fmt.Sprintf("run%d.xml", j),
			fmt.Sprintf("2013-0%d-10", j+1), fmt.Sprintf("gpm run %d", j))
		histogram.MustInsert(int64(900+j), int64(300+j), "expect", "0.1,0.3,0.4")
		param.MustInsert(int64(950+j), int64(300+j), "cleavage", "trypsin")
	}
	hit, pep, aan, ionN, specN, peakN, modN := 0, 0, 0, 0, 0, 0, 0
	for j := 0; j < cfg.Searches; j++ {
		for h := 0; h < cfg.HitsPerSearch; h++ {
			proseqID := int64(2000 + (hit % len(accs)))
			protein.MustInsert(int64(2500+hit), proseqID, rng.Float64(),
				int64(300+j), fmt.Sprintf("uid-%d", hit), int64(1+hit%5))
			for p := 0; p < cfg.PeptidesPerHit; p++ {
				seq := pool[(pep*2)%len(pool)]
				pepID := int64(4000 + pep)
				peptide.MustInsert(pepID, int64(2500+hit), seq, rng.Float64(),
					10+rng.Float64()*40, int64(1+rng.Intn(3)),
					int64(1+rng.Intn(50)), int64(60+rng.Intn(50)),
					int64(300+j), rng.Float64()*90, rng.Float64(),
					int64(rng.Intn(2)))
				for a := 0; a < 2; a++ {
					aa.MustInsert(int64(10000+aan), pepID,
						string(aminoAcids[rng.Intn(len(aminoAcids))]),
						int64(a+1), rng.Intn(4) == 0)
					aan++
				}
				ion.MustInsert(int64(20000+ionN), pepID, "b",
					200+rng.Float64()*800, rng.Float64()*1e5, int64(1+ionN%6), int64(1))
				ionN++
				mod.MustInsert(int64(30000+modN), pepID, int64(1+rng.Intn(6)),
					"M", 15.995, true, "Oxidation")
				modN++
				pep++
			}
			hit++
		}
		for s := 0; s < 3; s++ {
			specID := int64(40000 + specN)
			spectrum.MustInsert(specID, int64(300+j), 400+rng.Float64()*800,
				int64(2), rng.Float64()*90, rng.Float64()*1e6, int64(specN+1),
				400+rng.Float64()*400, rng.Float64()*1e5)
			for q := 0; q < 2; q++ {
				peak.MustInsert(int64(50000+peakN), specID,
					100+rng.Float64()*1200, rng.Float64()*1e4)
				peakN++
			}
			specN++
		}
	}
	mustFK(db, "protein", "proseqid", "proseq")
	mustFK(db, "protein", "pathid", "path")
	mustFK(db, "peptide", "proteinid", "protein")
	mustFK(db, "peptide", "pathid", "path")
	mustFK(db, "aa", "peptideid", "peptide")
	mustFK(db, "ion", "peptideid", "peptide")
	mustFK(db, "mod", "peptideid", "peptide")
	mustFK(db, "spectrum", "pathid", "path")
	mustFK(db, "peak", "spectrumid", "spectrum")
	return db
}

// BuildPepSeeker constructs the synthetic PepSeeker database
// (Mascot-result flavour). Protein identifiers are accession strings,
// which is why the paper derives <<UProtein, accession_num>> for
// pepSeeker from the UProtein keys themselves.
func BuildPepSeeker(cfg Config) *rel.DB {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	pool := sharedPool(rand.New(rand.NewSource(cfg.Seed)), 24)
	db := rel.NewDB("PepSeeker")

	protein := db.MustCreateTable("protein", []rel.Column{
		{Name: "proteinid", Type: rel.String},
		{Name: "description", Type: rel.String},
		{Name: "mass", Type: rel.Float},
		{Name: "pi", Type: rel.Float},
		{Name: "sequence", Type: rel.String},
	}, "proteinid")
	proteinHit := db.MustCreateTable("proteinhit", []rel.Column{
		{Name: "proteinhitid", Type: rel.Int},
		{Name: "proteinid", Type: rel.String},
		{Name: "fileparameters", Type: rel.Int},
		{Name: "hitnumber", Type: rel.Int},
		{Name: "protscore", Type: rel.Float},
		{Name: "protexpect", Type: rel.Float},
		{Name: "matchedpeptides", Type: rel.Int},
	}, "proteinhitid")
	peptideHit := db.MustCreateTable("peptidehit", []rel.Column{
		{Name: "peptidehitid", Type: rel.Int},
		{Name: "proteinhitid", Type: rel.Int},
		{Name: "pepseq", Type: rel.String},
		{Name: "score", Type: rel.Float},
		{Name: "expect", Type: rel.Float},
		{Name: "charge", Type: rel.Int},
		{Name: "mrexpt", Type: rel.Float},
		{Name: "mrcalc", Type: rel.Float},
		{Name: "delta", Type: rel.Float},
		{Name: "misscleave", Type: rel.Int},
		{Name: "start", Type: rel.Int},
		{Name: "end", Type: rel.Int},
		{Name: "rtime", Type: rel.Float},
	}, "peptidehitid")
	fileParameters := db.MustCreateTable("fileparameters", []rel.Column{
		{Name: "fileparametersid", Type: rel.Int},
		{Name: "filename", Type: rel.String},
		{Name: "searchdate", Type: rel.String},
		{Name: "database", Type: rel.String},
		{Name: "dbversion", Type: rel.String},
		{Name: "username", Type: rel.String},
		{Name: "taxonomy", Type: rel.String},
		{Name: "searchengine", Type: rel.String},
		{Name: "nterm", Type: rel.String},
		{Name: "cterm", Type: rel.String},
		{Name: "fixedmods", Type: rel.String},
		{Name: "varmods", Type: rel.String},
		{Name: "peptol", Type: rel.Float},
		{Name: "msmstol", Type: rel.Float},
	}, "fileparametersid")
	ionTable := db.MustCreateTable("iontable", []rel.Column{
		{Name: "iontableid", Type: rel.Int},
		{Name: "peptidehitid", Type: rel.Int},
		{Name: "iontype", Type: rel.String},
		{Name: "mz", Type: rel.Float},
		{Name: "intensity", Type: rel.Float},
		{Name: "position", Type: rel.Int},
		{Name: "ioncharge", Type: rel.Int},
	}, "iontableid")
	spectrumData := db.MustCreateTable("spectrumdata", []rel.Column{
		{Name: "spectrumdataid", Type: rel.Int},
		{Name: "fileparametersid", Type: rel.Int},
		{Name: "precursormz", Type: rel.Float},
		{Name: "charge", Type: rel.Int},
		{Name: "retentiontime", Type: rel.Float},
		{Name: "totalintensity", Type: rel.Float},
		{Name: "scannumber", Type: rel.Int},
		{Name: "basepeakmz", Type: rel.Float},
		{Name: "basepeakintensity", Type: rel.Float},
	}, "spectrumdataid")
	peakData := db.MustCreateTable("peakdata", []rel.Column{
		{Name: "peakdataid", Type: rel.Int},
		{Name: "spectrumdataid", Type: rel.Int},
		{Name: "mz", Type: rel.Float},
		{Name: "intensity", Type: rel.Float},
	}, "peakdataid")
	modification := db.MustCreateTable("modification", []rel.Column{
		{Name: "modificationid", Type: rel.Int},
		{Name: "peptidehitid", Type: rel.Int},
		{Name: "position", Type: rel.Int},
		{Name: "residue", Type: rel.String},
		{Name: "deltamass", Type: rel.Float},
		{Name: "isvariable", Type: rel.Bool},
		{Name: "modname", Type: rel.String},
	}, "modificationid")
	aminoAcid := db.MustCreateTable("aminoacid", []rel.Column{
		{Name: "aminoacidid", Type: rel.Int},
		{Name: "peptidehitid", Type: rel.Int},
		{Name: "aatype", Type: rel.String},
		{Name: "position", Type: rel.Int},
		{Name: "ismodified", Type: rel.Bool},
	}, "aminoacidid")
	searchParam := db.MustCreateTable("searchparam", []rel.Column{
		{Name: "searchparamid", Type: rel.Int},
		{Name: "fileparametersid", Type: rel.Int},
		{Name: "paramname", Type: rel.String},
		{Name: "paramvalue", Type: rel.String},
	}, "searchparamid")
	masses := db.MustCreateTable("masses", []rel.Column{
		{Name: "massesid", Type: rel.Int},
		{Name: "fileparametersid", Type: rel.Int},
		{Name: "aaletter", Type: rel.String},
		{Name: "monoisotopic", Type: rel.Float},
		{Name: "average", Type: rel.Float},
	}, "massesid")
	queryData := db.MustCreateTable("querydata", []rel.Column{
		{Name: "querydataid", Type: rel.Int},
		{Name: "fileparametersid", Type: rel.Int},
		{Name: "querynumber", Type: rel.Int},
		{Name: "huntscore", Type: rel.Float},
	}, "querydataid")

	// Proteins: window [P, 2P), plus the shared accession.
	lo, hi := accessionWindow(cfg, 1.0, 2.0)
	accs := []string{SharedAccession}
	for i := lo; i < hi && len(accs) < cfg.Proteins; i++ {
		if a := accession(i); a != SharedAccession {
			accs = append(accs, a)
		}
	}
	for _, acc := range accs {
		protein.MustInsert(acc, description(rng), 20000+rng.Float64()*40000,
			4+rng.Float64()*6, peptideSeq(rng)+peptideSeq(rng))
	}
	for j := 0; j < cfg.Searches; j++ {
		fpID := int64(500 + j)
		fileParameters.MustInsert(fpID, fmt.Sprintf("mascot%d.dat", j),
			fmt.Sprintf("2013-0%d-20", j+1), "NCBInr", "20130"+fmt.Sprint(j+1),
			fmt.Sprintf("analyst%d", j), SharedOrganism, "Mascot",
			"R", "K", "Carbamidomethyl (C)", "Oxidation (M)",
			0.3+rng.Float64(), 0.1+rng.Float64())
		searchParam.MustInsert(int64(550+j), fpID, "enzyme", "trypsin")
		masses.MustInsert(int64(600+j), fpID, "G", 57.02146, 57.0519)
		queryData.MustInsert(int64(650+j), fpID, int64(j+1), rng.Float64()*100)
		for s := 0; s < 3; s++ {
			sdID := int64(660+j*10) + int64(s)
			spectrumData.MustInsert(sdID, fpID, 400+rng.Float64()*800,
				int64(2), rng.Float64()*90, rng.Float64()*1e6,
				int64(s+1), 400+rng.Float64()*400, rng.Float64()*1e5)
			peakData.MustInsert(int64(700+j*10)+int64(s), sdID,
				100+rng.Float64()*1200, rng.Float64()*1e4)
		}
	}
	hit, pep, ionN, modN, aaN := 0, 0, 0, 0, 0
	for j := 0; j < cfg.Searches; j++ {
		for h := 0; h < cfg.HitsPerSearch; h++ {
			acc := accs[hit%len(accs)]
			phID := int64(6000 + hit)
			proteinHit.MustInsert(phID, acc, int64(500+j), int64(h+1),
				20+rng.Float64()*80, rng.Float64(), int64(1+rng.Intn(9)))
			for p := 0; p < cfg.PeptidesPerHit; p++ {
				seq := pool[(pep*3)%len(pool)]
				phitID := int64(7000 + pep)
				peptideHit.MustInsert(phitID, phID, seq, 10+rng.Float64()*60,
					rng.Float64(), int64(1+rng.Intn(3)),
					800+rng.Float64()*2000, 800+rng.Float64()*2000,
					rng.Float64(), int64(rng.Intn(2)),
					int64(1+rng.Intn(50)), int64(60+rng.Intn(50)),
					rng.Float64()*90)
				for i := 0; i < 3; i++ {
					ionTable.MustInsert(int64(9000+ionN), phitID,
						[]string{"b", "y", "a"}[i], 200+rng.Float64()*900,
						rng.Float64()*1e5, int64(i+1), int64(1))
					ionN++
				}
				modification.MustInsert(int64(12000+modN), phitID,
					int64(1+rng.Intn(6)), "C", 57.02146, false, "Carbamidomethyl")
				modN++
				aminoAcid.MustInsert(int64(15000+aaN), phitID,
					string(aminoAcids[rng.Intn(len(aminoAcids))]),
					int64(1+aaN%8), rng.Intn(5) == 0)
				aaN++
				pep++
			}
			hit++
		}
	}
	mustFK(db, "proteinhit", "proteinid", "protein")
	mustFK(db, "proteinhit", "fileparameters", "fileparameters")
	mustFK(db, "peptidehit", "proteinhitid", "proteinhit")
	mustFK(db, "iontable", "peptidehitid", "peptidehit")
	mustFK(db, "spectrumdata", "fileparametersid", "fileparameters")
	mustFK(db, "peakdata", "spectrumdataid", "spectrumdata")
	mustFK(db, "modification", "peptidehitid", "peptidehit")
	mustFK(db, "aminoacid", "peptidehitid", "peptidehit")
	mustFK(db, "searchparam", "fileparametersid", "fileparameters")
	mustFK(db, "masses", "fileparametersid", "fileparameters")
	mustFK(db, "querydata", "fileparametersid", "fileparameters")
	return db
}

func mustFK(db *rel.DB, table, col, ref string) {
	if err := db.AddForeignKey(table, col, ref); err != nil {
		panic(err)
	}
}

// Wrappers builds the three sources and wraps them, ready for an
// integrator.
func Wrappers(cfg Config) (pedro, gpmdb, pepseeker *wrapper.Relational, err error) {
	pedro, err = wrapper.NewRelational("Pedro", BuildPedro(cfg))
	if err != nil {
		return nil, nil, nil, err
	}
	gpmdb, err = wrapper.NewRelational("gpmDB", BuildGpmDB(cfg))
	if err != nil {
		return nil, nil, nil, err
	}
	pepseeker, err = wrapper.NewRelational("PepSeeker", BuildPepSeeker(cfg))
	if err != nil {
		return nil, nil, nil, err
	}
	return pedro, gpmdb, pepseeker, nil
}
