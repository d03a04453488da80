#pragma once
/// \file image_reference.hpp
/// The whole-store image formatter, kept as the ground truth for
/// incremental checkpoint images.  db::Database::checkpoint() copies the
/// line of every row no write touched since its last image; this writer
/// formats every line from its row, as the store did before it kept any
/// image, through the tables' public reads and the cell codecs.
/// SeededProperty.IncrementalImageMatchesFullImage requires every image
/// a warehouse publishes to equal its output byte for byte.

#include <string>
#include <tuple>
#include <type_traits>

#include "core/warehouse.hpp"
#include "db/table.hpp"
#include "warehouse_reference.hpp"

namespace sphinx::image_reference {

/// Appends one table's record and its rows' lines, in id order.
template <typename Row>
void append_table(std::string& out, const db::Table<Row>& table) {
  out += "T\t";
  db::append_field(out, table.name());
  out += '\t';
  db::append_u64(out, table.next_id());
  for (const db::Column& column : table.columns()) {
    out += '\t';
    db::append_column(out, column);
  }
  out += '\n';
  table.for_each([&out](db::RowId id, const Row& row) {
    out += "R\t";
    db::append_u64(out, id);
    std::apply(
        [&](const auto&... field) {
          ((out += '\t',
            db::CellCodec<std::remove_cvref_t<decltype(row.*field.member)>>::
                write(out, row.*field.member)),
           ...);
        },
        Row::columns());
    out += '\n';
  });
}

/// The image of a database holding `tables`, in creation order.
template <typename... Row>
std::string full_image_of(const db::Table<Row>&... tables) {
  std::string out = "#db\t1\n";
  (append_table(out, tables), ...);
  return out;
}

/// The image a checkpoint of `wh` must publish, formatted whole.
inline std::string full_image(const core::DataWarehouse& wh) {
  return core::WarehouseInspector::with_tables(
      wh, [](const auto&... tables) { return full_image_of(tables...); });
}

}  // namespace sphinx::image_reference
