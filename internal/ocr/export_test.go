package ocr

// ScalarEngines hands the byte-per-pixel oracle (scalar_test.go) to the
// corpus tests in package ocr_test, which need imageproc and so cannot live
// inside this package.
var ScalarEngines = scalarEngines
