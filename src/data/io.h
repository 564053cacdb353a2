#ifndef GRAPHAUG_DATA_IO_H_
#define GRAPHAUG_DATA_IO_H_

#include <string>

#include "data/dataset.h"

namespace graphaug {

/// Saves a dataset as TSV: header lines `#name`, `#users N`, `#items M`,
/// then one `user<TAB>item<TAB>split[<TAB>noise]` row per interaction,
/// where split is "train" or "test". Returns false on I/O failure.
bool SaveDatasetTsv(const Dataset& dataset, const std::string& path);

/// Loads a dataset saved by SaveDatasetTsv. Returns false when the file
/// cannot be opened or its content is malformed: a bad or missing
/// `#users`/`#items` header, a row with fewer than three fields, a
/// non-numeric or out-of-range id (ids must lie in [0, #users) and
/// [0, #items), so both headers precede the rows), a split tag other than
/// train/test, a noise flag other than 0/1, or no train row at all. The
/// reason, as one `path:line: reason` line, goes to `*error` when given.
bool LoadDatasetTsv(const std::string& path, Dataset* dataset,
                    std::string* error = nullptr);

}  // namespace graphaug

#endif  // GRAPHAUG_DATA_IO_H_
