-- perfbase embedded database dump
CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b TEXT);
INSERT INTO t VALUES (1, 11, 'x'), (2, 20, 'q'), (4, 40, 'four');
CREATE ORDERED INDEX ix_t_a ON t (a);
CREATE TABLE u (k TEXT);
INSERT INTO u VALUES ('solo');
